package store

import (
	"math/rand"
	"reflect"
	"testing"
)

// flatWal is the reference model for truncation: the WAL as one flat slice
// and the positional truncation rule written against it (per shard, the
// first covered entries the shard owns, counted from the client's birth).
type flatWal struct {
	wal     []WalOp
	dropped map[string]uint64
}

func (m *flatWal) truncate(owns func(Key) bool, shard string, covered uint64) {
	drop := int64(covered) - int64(m.dropped[shard])
	if drop <= 0 {
		return
	}
	var kept []WalOp
	var dropped int64
	for _, w := range m.wal {
		if dropped < drop && owns(w.Req.Key) {
			dropped++
			continue
		}
		kept = append(kept, w)
	}
	m.wal = kept
	m.dropped[shard] += uint64(dropped)
}

// TestTruncateAcrossSegments: positional truncation keeps its exact
// semantics and walDropped accounting when the WAL spans several segments
// and two shards' entries interleave in it, through repeated truncations
// with appends in between. A message carrying only TS clocks drops no WAL
// entry, even when the clock is one the WAL holds.
func TestTruncateAcrossSegments(t *testing.T) {
	type step struct {
		shard      string
		tsOnly     bool
		n          uint64 // positional: the covered position; TS: the clock of the shard's n-th retained entry
		appendMore int    // entries logged after the truncation
	}
	seg := uint64(walSegEntries)
	tests := []struct {
		name  string
		steps []step
	}{
		{"positional within, across and onto segment boundaries", []step{
			{"s0", false, 100, 0},
			{"s0", false, 100, 0}, // already covered: nothing to drop
			{"s0", false, 60, 0},  // behind the horizon: nothing to drop
			{"s0", false, seg + 37, 0},
			{"s1", false, seg, 0},
			{"s1", false, 2 * seg, 300},
			{"s0", false, 1 << 20, 0}, // claims more than was ever logged
		}},
		{"TS clock", []step{
			{"s0", true, 90, 0},
			{"s1", true, 90, 0},
			{"s0", true, seg, 500},
			{"", true, 2 * seg, 0},
		}},
		{"paths mixed, then the whole tier at once", []step{
			{"s1", false, 333, 0},
			{"s0", false, 600, 700},
			{"", false, 1 << 20, 0},
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 3, Endpoint: "nfa",
				Shards: []string{"s0", "s1"}})
			m := &flatWal{dropped: map[string]uint64{}}
			var clock uint64
			log := func(n int) {
				for i := 0; i < n; i++ {
					// One clock covers one to three entries, so a TS clock
					// names several positions, on both shards.
					if r.Intn(2) == 0 {
						clock++
					}
					req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1, Sub: uint64(r.Intn(64))},
						Arg: IntVal(int64(i)), Clock: clock + 1, Instance: 3}
					logged := req // logOp stamps its argument after logging it
					c.logOp(&logged)
					m.wal = append(m.wal, WalOp{Clock: req.Clock, Req: req})
				}
			}
			log(3*walSegEntries + 17)
			if n := len(c.wal.segs); n < 4 {
				t.Fatalf("WAL spans %d segments, want >= 4", n)
			}
			for i, s := range tc.steps {
				shard := s.shard
				owns := func(k Key) bool { return shard == "" || c.shardFor(k) == shard }
				before := len(m.wal)
				if s.tsOnly {
					n := s.n
					for _, w := range m.wal {
						if owns(w.Req.Key) {
							if n == 0 {
								c.truncate(shard, map[uint16]uint64{3: w.Clock}, nil)
								break
							}
							n--
						}
					}
				} else {
					c.truncate(shard, nil, map[uint16]uint64{3: s.n})
					m.truncate(owns, shard, s.n)
				}
				t.Logf("step %d: %d of %d entries dropped", i, before-len(m.wal), before)
				log(s.appendMore)
				if got := c.WAL(); len(got) != len(m.wal) || (len(got) > 0 && !reflect.DeepEqual(got, m.wal)) {
					t.Fatalf("step %d (%+v): WAL() has %d entries, model %d, or they differ", i, s, len(got), len(m.wal))
				}
				got := c.WALDropped()
				for _, sh := range []string{"", "s0", "s1"} {
					if got[sh] != m.dropped[sh] {
						t.Fatalf("step %d (%+v): WALDropped()[%q] = %d, model %d", i, s, sh, got[sh], m.dropped[sh])
					}
				}
			}
		})
	}
}
