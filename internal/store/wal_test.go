package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"chc/internal/transport"
)

// walModel is the reference model for truncation: each shard's WAL as a
// flat slice, which is what that shard's recovery reads, and the
// positional truncation rule written against it (a checkpoint covers the
// first entries of the shard's log, counted from the client's birth).
type walModel struct {
	wal     map[string][]WalOp
	dropped map[string]uint64
}

func newWalModel() *walModel {
	return &walModel{wal: map[string][]WalOp{}, dropped: map[string]uint64{}}
}

// log appends what logOp logs for req to the model, on c's shard for it.
func (m *walModel) log(c *Client, req Request) {
	for _, w := range walOpsOf(req) {
		shard := c.shardFor(w.Req.Key)
		m.wal[shard] = append(m.wal[shard], w)
	}
}

func (m *walModel) truncate(shard string, covered uint64) {
	drop := int64(covered) - int64(m.dropped[shard])
	if drop <= 0 {
		return
	}
	n := min(int(drop), len(m.wal[shard]))
	m.wal[shard] = m.wal[shard][n:]
	m.dropped[shard] += uint64(n)
}

// TestTruncateAcrossSegments: positional truncation keeps its exact
// semantics and dropped-entry accounting when each shard's WAL spans
// several segments, through repeated truncations with appends in between.
// A message carrying only TS clocks drops no WAL entry, even when the
// clock is one the WAL holds, and one naming a shard the client does not
// know drops nothing. A step on shard "" truncates every shard.
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
			{"s9", false, 1 << 20, 0}, // a shard the client does not know
			{"s0", false, 1 << 20, 0}, // claims more than was ever logged
		}},
		{"TS clock", []step{
			{"s0", true, 90, 0},
			{"s1", true, 90, 0},
			{"s0", true, seg, 500},
			{"s1", true, 2 * seg, 0},
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
			m := newWalModel()
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
					m.log(c, req)
				}
			}
			log(5*int(seg) + 17)
			for i := range c.wal {
				if n := len(c.wal[i].segs); n < 3 {
					t.Fatalf("shard %d's WAL spans %d segments, want >= 3", i, n)
				}
			}
			for i, s := range tc.steps {
				shards := []string{s.shard}
				if s.shard == "" {
					shards = c.pmap.Shards
				}
				before := c.WALLen()
				for _, shard := range shards {
					if s.tsOnly {
						if n := s.n; n < uint64(len(m.wal[shard])) {
							c.truncate(shard, map[uint16]uint64{3: m.wal[shard][n].Clock}, nil)
						}
						continue
					}
					c.truncate(shard, nil, map[uint16]uint64{3: s.n})
					m.truncate(shard, s.n)
				}
				t.Logf("step %d: %d of %d entries dropped", i, before-c.WALLen(), before)
				log(s.appendMore)
				checkWAL(t, c, m)
			}
		})
	}
}

// TestDropPrefixOverLargeEntry: a truncation that ends before, on and past
// an entry larger than a segment keeps exactly the entries after it, and
// releases every segment it emptied.
func TestDropPrefixOverLargeEntry(t *testing.T) {
	var l walLog
	var want []WalOp
	add := func(r Request) {
		l.append(&r)
		want = append(want, WalOp{Clock: r.Clock, Req: r})
	}
	small := func(clock uint64) Request {
		return Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1, Sub: clock}, Arg: IntVal(1), Clock: clock, Instance: 1}
	}
	for cl := uint64(1); cl <= 10; cl++ {
		add(small(cl))
	}
	add(Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 2}, Arg: BytesVal(bytes.Repeat([]byte{9}, walSegBytes+100)),
		Clock: 11, Instance: 1})
	for cl := uint64(12); cl <= 20; cl++ {
		add(small(cl))
	}
	if len(l.segs) != 3 {
		t.Fatalf("%d segments, want 3: the small entries, the large one, the rest", len(l.segs))
	}
	for _, k := range []int{4, 6, 1, 3, 6} { // to before the large entry, up to it, past it, to the end
		l.dropPrefix(k)
		want = want[min(k, len(want)):]
		if got := l.flat(); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("after dropping %d: %d entries held, want %d:\n got %+v\nwant %+v", k, len(got), len(want), got, want)
		}
		if l.n != len(want) || l.dropped() != 20-uint64(len(want)) {
			t.Fatalf("after dropping %d: n=%d dropped=%d, want %d and %d", k, l.n, l.dropped(), len(want), 20-len(want))
		}
		held := 0
		for _, seg := range l.segs {
			if len(seg) >= walSegBytes {
				held++
			}
		}
		if len(want) <= 9 && held != 0 {
			t.Fatalf("after dropping %d: the large entry's segment is still held", k)
		}
	}
	if len(l.segs) != 0 {
		t.Fatalf("an empty log holds %d segments", len(l.segs))
	}
	// A large entry into an empty log replaces the empty segment made for
	// it (no segment is ever empty).
	add(Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 2}, Arg: BytesVal(bytes.Repeat([]byte{8}, walSegBytes+1)),
		Clock: 21, Instance: 1})
	add(small(22))
	l.dropPrefix(1)
	if got := l.flat(); len(got) != 1 || got[0].Clock != 22 || l.total != 22 {
		t.Fatalf("after dropping the large first entry: %+v, total %d", got, l.total)
	}
	if l.dropPrefix(1); len(l.segs) != 0 {
		t.Fatalf("an empty log holds %d segments", len(l.segs))
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

// checkWAL fails unless each shard's WAL, as its recovery reads it, the
// entries held and the truncation counts match the model.
func checkWAL(t *testing.T, c *Client, m *walModel) {
	t.Helper()
	total := 0
	for _, shard := range c.pmap.Shards {
		got, want := c.WAL(shard), m.wal[shard]
		total += len(want)
		if len(got) != len(want) {
			t.Fatalf("WAL(%q) has %d entries, model %d", shard, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s entry %d:\n got %+v\nwant %+v", shard, i, got[i], want[i])
			}
		}
		if cs := c.RecoveryState(shard); cs.Dropped != m.dropped[shard] || !reflect.DeepEqual(cs.WAL, got) {
			t.Fatalf("RecoveryState(%q): %d entries, %d dropped; model %d dropped", shard, len(cs.WAL), cs.Dropped, m.dropped[shard])
		}
	}
	if c.WALLen() != total {
		t.Fatalf("WALLen() = %d, model %d", c.WALLen(), total)
	}
}

// TestWALRoundTrip: WAL gives back exactly the entries logOp logged,
// for every op kind with every Value kind and every Request field set,
// +NA heads with their Batch and the increments merged into them, entries
// that do not fit the room a segment has left and one larger than a
// segment; and again after a truncation.
func TestWALRoundTrip(t *testing.T) {
	vals := []Value{{}, IntVal(-7), FloatVal(2.5), BytesVal([]byte("ab\x00c")),
		ListVal(3, -1, 9), MapVal(map[string]int64{"x": 1, "y": -2})}
	c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 3, Endpoint: "nfa",
		Shards: []string{"s0", "s1"}})
	m := newWalModel()
	log := func(req Request) {
		logged := req // logOp stamps its argument after logging it
		c.logOp(&logged)
		m.log(c, req)
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
	for i := range c.wal {
		if n := len(c.wal[i].segs); n < 4 {
			t.Fatalf("shard %d's WAL spans %d segments, want >= 4", i, n)
		}
	}
	checkWAL(t, c, m)
	for _, shard := range []string{"s0", "s1"} {
		covered := uint64(len(m.wal[shard]) / 3)
		c.truncate(shard, nil, map[uint16]uint64{3: covered})
		m.truncate(shard, covered)
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
	for _, seg := range c.wal[0].segs {
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
// over two shards; each shard's WAL and its dropped count must match the
// per-shard model.
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
		m := newWalModel()
		for len(data) > 0 {
			if next()%8 == 0 {
				shard := []string{"s9", "s0", "s1"}[next()%3] // s9: unknown, drops nothing
				covered := uint64(next())
				c.truncate(shard, nil, map[uint16]uint64{3: covered})
				m.truncate(shard, covered)
				continue
			}
			req := fuzzRequest(next)
			logged := req
			c.logOp(&logged)
			m.log(c, req)
		}
		checkWAL(t, c, m)
	})
}
