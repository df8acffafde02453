package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"chc/internal/transport"
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
	sample := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 1, Instance: 3}
	seg := uint64(walSegBytes / walEntrySize(&sample)) // every entry below has this size
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
			log(3*int(seg) + 17)
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
				checkWAL(t, c, m)
			}
		})
	}
}

// walEntrySize is the room one logged r takes in a segment.
func walEntrySize(r *Request) int {
	e := transport.NewWireEnc(nil)
	encRequest(&e, r)
	return 4 + len(e.Bytes())
}

// walOpsOf is what logOp logs for req, in order: req itself when it has a
// clock, then each increment merged into it that has one.
func walOpsOf(req Request) []WalOp {
	var out []WalOp
	if req.Clock != 0 {
		out = append(out, WalOp{Clock: req.Clock, Req: req})
	}
	for _, b := range req.Batch {
		if b.Clock != 0 {
			r := req
			r.Clock, r.Arg, r.Batch = b.Clock, IntVal(b.Delta), nil
			out = append(out, WalOp{Clock: b.Clock, Req: r})
		}
	}
	return out
}

// checkWAL fails unless c's WAL, its length and its truncation counts
// match the model.
func checkWAL(t *testing.T, c *Client, m *flatWal) {
	t.Helper()
	got := c.WAL()
	if c.WALLen() != len(m.wal) || len(got) != len(m.wal) {
		t.Fatalf("WAL() has %d entries, WALLen() %d, model %d", len(got), c.WALLen(), len(m.wal))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], m.wal[i]) {
			t.Fatalf("entry %d:\n got %+v\nwant %+v", i, got[i], m.wal[i])
		}
	}
	dropped := c.WALDropped()
	for _, sh := range []string{"", "s0", "s1"} {
		if dropped[sh] != m.dropped[sh] {
			t.Fatalf("WALDropped()[%q] = %d, model %d", sh, dropped[sh], m.dropped[sh])
		}
	}
}

// TestWALRoundTrip: WAL() gives back exactly the entries logOp logged,
// for every op kind with every Value kind and every Request field set,
// +NA heads with their Batch and the increments merged into them, entries
// that do not fit the room a segment has left and one larger than a
// segment; and again after a truncation moved the kept ones.
func TestWALRoundTrip(t *testing.T) {
	vals := []Value{{}, IntVal(-7), FloatVal(2.5), BytesVal([]byte("ab\x00c")),
		ListVal(3, -1, 9), MapVal(map[string]int64{"x": 1, "y": -2})}
	c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 3, Endpoint: "nfa",
		Shards: []string{"s0", "s1"}})
	m := &flatWal{dropped: map[string]uint64{}}
	log := func(req Request) {
		logged := req // logOp stamps its argument after logging it
		c.logOp(&logged)
		m.wal = append(m.wal, walOpsOf(req)...)
	}
	var clock uint64
	for round := 0; round < 40; round++ {
		for op := OpGet; op <= OpDisassoc; op++ {
			for i, v := range vals {
				clock++
				req := Request{Op: op, Key: Key{Vertex: 1, Obj: uint16(op), Sub: uint64(i)},
					Arg: v, Arg2: vals[(i+round)%len(vals)], Clock: clock, Instance: 3,
					WalPos: uint64(round), NDKind: NonDetKind(i % 2),
					WantTS: i%2 == 0, NonBlock: i%3 == 0, RegisterCB: i%4 == 0, WatchOwner: i%5 == 0}
				switch op {
				case OpCustom:
					req.Custom = "nat.alloc"
				case OpMapSet, OpMapGet, OpMapIncr:
					req.Field = "port"
				}
				if op == OpIncr || op == OpMapIncr {
					// A merged head: two merged increments are logged, the
					// one without a clock is not.
					req.Arg = IntVal(int64(i))
					req.Batch = []BatchEntry{{Clock: clock + 1, Delta: 5}, {Clock: 0, Delta: 2}, {Clock: clock + 2, Delta: -3}}
					clock += 2
				}
				log(req)
			}
		}
		// Not a shared-state mutation: logged nowhere.
		log(Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Instance: 3})
		// Room for a small entry but not this one, so it starts the next
		// segment; every tenth round, one larger than a segment.
		big := make([]byte, 700+round)
		if round%10 == 9 {
			big = make([]byte, walSegBytes+round)
		}
		clock++
		log(Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 20, Sub: uint64(round)},
			Arg: BytesVal(append(big, byte(round))), Clock: clock, Instance: 3})
	}
	if n := len(c.wal.segs); n < 4 {
		t.Fatalf("WAL spans %d segments, want >= 4", n)
	}
	checkWAL(t, c, m)
	for _, shard := range []string{"s0", "s1"} {
		owns := func(k Key) bool { return c.shardFor(k) == shard }
		covered := uint64(len(m.wal) / 3)
		c.truncate(shard, nil, map[uint16]uint64{3: covered})
		m.truncate(owns, shard, covered)
		checkWAL(t, c, m)
	}
}

// TestWALBytesPerEntry pins the WAL's footprint: a logged increment keeps
// its wire encoding, 110 bytes, not a Request struct (288 as a WalOp).
func TestWALBytesPerEntry(t *testing.T) {
	var req0 Request
	c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0"})
	const n = 10000
	for i := 0; i < n; i++ {
		req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1, Sub: uint64(i)}, Arg: IntVal(1),
			Clock: uint64(i + 1), Instance: 1}
		c.logOp(&req)
	}
	if n := walEntrySize(&req0); n != walMinEntry {
		t.Fatalf("the smallest entry takes %d bytes, walMinEntry is %d", n, walMinEntry)
	}
	held := 0
	for _, seg := range c.wal.segs {
		held += cap(seg)
	}
	if per := held / n; per > 128 {
		t.Fatalf("the WAL retains %d bytes per entry (%d for %d entries), want <= 128", per, held, n)
	}
}

// TestWALAppendAllocs: logging into a segment with room encodes in place
// and allocates nothing.
func TestWALAppendAllocs(t *testing.T) {
	var l walLog
	req := Request{Op: OpMapIncr, Key: Key{Vertex: 1, Obj: 2, Sub: 7}, Field: "port", Arg: IntVal(1),
		Clock: 5, Instance: 1, NonBlock: true, Batch: []BatchEntry{{Clock: 6, Delta: 1}}}
	// AllocsPerRun's warm-up call makes the segment; the 100 measured
	// appends fit in it.
	if allocs := testing.AllocsPerRun(100, func() { l.append(&req) }); allocs != 0 {
		t.Fatalf("append: %v allocs, want 0", allocs)
	}
	if len(l.segs) != 1 || l.n != 101 {
		t.Fatalf("%d segments, %d entries; want 1 and 101", len(l.segs), l.n)
	}
}

// fuzzRequest builds a Request from the fuzzer's bytes. Bytes, lists and
// maps are never empty: the wire form does not tell empty from nil.
func fuzzRequest(next func() byte) Request {
	value := func() Value {
		switch next() % 6 {
		case 1:
			return IntVal(int64(int8(next())))
		case 2:
			return FloatVal(float64(int8(next())) / 4)
		case 3:
			n := 1 + int(next()%8)
			if n == 8 {
				n = walSegBytes + 1 // a segment of its own
			}
			return BytesVal(bytes.Repeat([]byte{next()}, n))
		case 4:
			return ListVal(int64(next()), int64(int8(next())))
		case 5:
			return MapVal(map[string]int64{string(rune('a' + next()%26)): int64(int8(next()))})
		}
		return Value{}
	}
	flags := next()
	req := Request{
		Op:         Op(next() % uint8(OpDisassoc+1)),
		Key:        Key{Vertex: 1, Obj: uint16(next() % 4), Sub: uint64(next() % 32)},
		Field:      []string{"", "port", "h1"}[next()%3],
		Arg:        value(),
		Arg2:       value(),
		Custom:     []string{"", "nat.alloc"}[next()%2],
		NDKind:     NonDetKind(next() % 2),
		Clock:      uint64(next()),
		Instance:   3,
		WantTS:     flags&1 != 0,
		NonBlock:   flags&2 != 0,
		RegisterCB: flags&4 != 0,
		WatchOwner: flags&8 != 0,
		WalPos:     uint64(next()),
	}
	for i := next() % 4; i > 0; i-- {
		req.Batch = append(req.Batch, BatchEntry{Clock: uint64(next() % 3), Delta: int64(int8(next()))})
	}
	return req
}

// FuzzWALRoundTrip logs fuzzed requests and truncates at fuzzed positions
// over two shards; WAL() and WALDropped() must match the flat-slice model.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 2, 1, 3, 7, 4, 1, 1, 9, 2, 2, 7, 0, 1, 5, 3, 2, 1,
		8, 1, 2, 2, 9, 7, 1, 10, 2, 0, 0, 0, 3, 1, 7, 2, 0, 1, 3})
	f.Add(bytes.Repeat([]byte{3, 5, 11, 1, 3, 4, 6, 9, 1, 1, 40, 7, 2, 1, 0, 24, 2, 5}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 3, Endpoint: "nfa",
			Shards: []string{"s0", "s1"}})
		m := &flatWal{dropped: map[string]uint64{}}
		for len(data) > 0 {
			if next()%8 == 0 {
				shard := []string{"", "s0", "s1"}[next()%3]
				owns := func(k Key) bool { return shard == "" || c.shardFor(k) == shard }
				covered := uint64(next())
				c.truncate(shard, nil, map[uint16]uint64{3: covered})
				m.truncate(owns, shard, covered)
				continue
			}
			req := fuzzRequest(next)
			logged := req
			c.logOp(&logged)
			m.wal = append(m.wal, walOpsOf(req)...)
		}
		checkWAL(t, c, m)
	})
}
