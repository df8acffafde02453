package store

import (
	"math/rand"
	"reflect"
	"testing"
)

// flatWal is the reference model for truncation: the WAL as one flat slice
// and the truncation rules written against it (positional prefix per
// shard; failing that, everything the shard owns up to the last occurrence
// of the TS clock).
type flatWal struct {
	wal     []WalOp
	dropped map[string]uint64
}

func (m *flatWal) truncate(owns func(Key) bool, shard string, upto, covered uint64, positional bool) {
	var kept []WalOp
	if positional {
		drop := int64(covered) - int64(m.dropped[shard])
		if drop <= 0 {
			return
		}
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
		return
	}
	cut := -1
	for i := len(m.wal) - 1; i >= 0; i-- {
		if owns(m.wal[i].Req.Key) && m.wal[i].Clock == upto {
			cut = i
			break
		}
	}
	if upto == 0 || cut < 0 {
		return
	}
	for i, w := range m.wal {
		if i <= cut && owns(w.Req.Key) {
			m.dropped[shard]++
			continue
		}
		kept = append(kept, w)
	}
	m.wal = kept
}

// TestTruncateAcrossSegments: both truncation paths keep their exact
// semantics and walDropped accounting when the WAL spans several segments
// and two shards' entries interleave in it, through repeated truncations
// with appends in between.
func TestTruncateAcrossSegments(t *testing.T) {
	type step struct {
		shard      string
		positional bool
		n          uint64 // positional: the covered position; TS: the clock of the shard's n-th retained entry
		appendMore int    // entries logged after the truncation
	}
	seg := uint64(walSegEntries)
	tests := []struct {
		name  string
		steps []step
	}{
		{"positional within, across and onto segment boundaries", []step{
			{"s0", true, 100, 0},
			{"s0", true, 100, 0}, // already covered: nothing to drop
			{"s0", true, 60, 0},  // behind the horizon: nothing to drop
			{"s0", true, seg + 37, 0},
			{"s1", true, seg, 0},
			{"s1", true, 2 * seg, 300},
			{"s0", true, 1 << 20, 0}, // claims more than was ever logged
		}},
		{"TS clock", []step{
			{"s0", false, 90, 0},
			{"s1", false, 90, 0},
			{"s0", false, 1 << 20, 0}, // no such clock: nothing to drop
			{"s0", false, seg, 0},
			{"s1", false, seg - 90, 500},
			{"s1", false, seg + 100, 0},
			{"s0", false, 0, 0},
		}},
		{"paths mixed, then the whole tier at once", []step{
			{"s1", true, 333, 0},
			{"s0", false, 200, 100},
			{"s1", false, 50, 0},
			{"s0", true, 600, 700},
			{"", false, 2 * seg, 0},
			{"", true, 1 << 20, 0},
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
					// One clock covers one to three entries, so the TS path
					// meets a clock at several positions and on both shards.
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
				n := s.n
				if !s.positional {
					n = 1 << 40
					for _, w := range m.wal {
						if owns(w.Req.Key) {
							if s.n == 0 {
								n = w.Clock
								break
							}
							s.n--
						}
					}
				}
				before := len(m.wal)
				if s.positional {
					c.truncate(shard, nil, map[uint16]uint64{3: n})
				} else {
					c.truncate(shard, map[uint16]uint64{3: n}, nil)
				}
				m.truncate(owns, shard, n, n, s.positional)
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
			if len(m.wal) == 3*walSegEntries+17 {
				t.Fatal("no step truncated anything: fixture is broken")
			}
		})
	}
}
