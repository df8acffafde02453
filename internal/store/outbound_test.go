package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// outModel is the reference for the client's outbound list: which unsent
// ops are held, in issue order, which of them are increments still open for
// merging, and the exact sequence of sends, calls and timers each verb
// produces.
type outModel struct {
	out    []*modelOp // held ops, in issue order
	armed  bool       // the window timer is scheduled and has not fired
	events []string   // the verb's expected stubNet events
	shard  func(Key) string
}

// modelOp is one held op; open marks an increment later increments of its
// stream may still merge into.
type modelOp struct {
	key    Key
	field  string
	op     Op
	clocks []uint64
	open   bool
}

func sendEvent(k Key, field string, clocks []uint64) string {
	return fmt.Sprintf("send %v/%q %v", k, field, clocks)
}

func callEvent(k Key, clock uint64) string { return fmt.Sprintf("call %v %d", k, clock) }

// hold puts one sealed op on the list.
func (m *outModel) hold(k Key, field string, clocks ...uint64) {
	m.out = append(m.out, &modelOp{key: k, field: field, clocks: clocks})
}

// seal closes every open head; the heads keep their places on the list.
func (m *outModel) seal() {
	for _, o := range m.out {
		o.open = false
	}
}

// incr is a mergeable increment: it joins its stream's open head, or
// opens one behind everything held, sealing a head at the cap, or of the
// other op kind, in its place.
func (m *outModel) incr(k Key, field string, op Op, clock uint64) {
	for _, o := range m.out {
		if !o.open || o.key != k || o.field != field {
			continue
		}
		if o.op == op && len(o.clocks) < coalesceMax {
			o.clocks = append(o.clocks, clock)
			return
		}
		o.open = false
		break
	}
	m.out = append(m.out, &modelOp{key: k, field: field, op: op, clocks: []uint64{clock}, open: true})
}

// issued arms the window timer if ops are held and it is not armed.
func (m *outModel) issued() {
	if len(m.out) > 0 && !m.armed {
		m.armed = true
		m.events = append(m.events, "window")
	}
}

// flush expects the held ops on the wire (all of them, or the sealed ones
// only, the open heads staying): one message per shard, shards in
// first-use order, each op in list order, each message followed by its
// retransmit timer.
func (m *outModel) flush(all bool) {
	var shards []string
	byShard := map[string][]*modelOp{}
	kept := m.out[:0]
	for _, o := range m.out {
		if o.open && !all {
			kept = append(kept, o)
			continue
		}
		sh := m.shard(o.key)
		if byShard[sh] == nil {
			shards = append(shards, sh)
		}
		byShard[sh] = append(byShard[sh], o)
	}
	m.out = kept
	for _, sh := range shards {
		for _, o := range byShard[sh] {
			m.events = append(m.events, sendEvent(o.key, o.field, o.clocks))
		}
		m.events = append(m.events, "ack")
	}
}

func (m *outModel) held() (n int) {
	for _, o := range m.out {
		n += len(o.clocks)
	}
	return n
}

// TestOutboundOrderModel drives a +NA client over two shards through
// random verbs and checks after every verb: the sends, calls and Schedule
// calls are exactly the model's (async ops leave only at a flush trigger,
// one message per shard; the window timer is armed once ops are held; a
// head at the cap is sealed in place and leaves with the next FlushBurst
// while its successor stays open; FlushObject, ReleaseFlow and
// SetExclusive hold the flushed cache ops behind the list); per key, ops
// reach the wire in issue order (except that increments of different
// fields of one map, which commute, may pass each other); per shard, they
// are a prefix of the WAL (all of it once nothing is held), each op's
// WalPos is the count logged up to it, and Seq grows; a blocking call
// finds nothing held. At the end every clock issued has been on the wire
// exactly once, merged entries counted. Under -short a few seeds run.
func TestOutboundOrderModel(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 4
	}
	// Every client holds its async ops for a flush trigger; the subtest is
	// named for that held mode.
	t.Run("hold=true", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			outboundModelRun(t, seed)
		}
	})
}

func outboundModelRun(t *testing.T, seed int64) {
	const window, ackTimeout = 50 * time.Microsecond, time.Millisecond
	decls := []ObjDecl{
		{ID: 1, Name: "ctr", Scope: ScopeGlobal, Pattern: WriteMostly},
		{ID: 2, Name: "map", Scope: ScopeGlobal, Pattern: WriteMostly},
		{ID: 3, Name: "flow", Scope: ScopeFlow, Pattern: WriteReadOften},
		{ID: 4, Name: "host", Scope: ScopeSrcIP, Pattern: WriteReadOften},
		{ID: 5, Name: "flow2", Scope: ScopeFlow, Pattern: WriteReadOften},
	}
	r := rand.New(rand.NewSource(seed))
	net := &stubNet{keep: true}
	c := NewClient(net, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa",
		Shards: []string{"store0", "store1"}, Mode: ModeEOCNA, Decls: decls,
		CoalesceWindow: window, AckTimeout: ackTimeout})
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
	}
	net.onCall = func(*Request) {
		if n := c.OutPending(); n != 0 {
			fail("a blocking call found %d ops held", n)
		}
	}

	var (
		m        = outModel{shard: c.shardFor}
		clock    uint64
		issued   = map[Key][]*issuedOp{} // per key, in issue order
		walNext  = map[string]int{}      // per shard: WAL entries matched to the wire so far
		lastSeq  = map[string]uint64{}   // per shard
		asyncOps = map[uint64][]uint64{} // seq -> clocks, every async op sent
		sentMark int
		tmrMark  int
	)
	cacheable := func(k Key) bool {
		e := c.cache[k]
		if e == nil {
			e = &cacheEntry{}
		}
		return c.cacheable(c.decl(k.Obj), e)
	}
	valid := func(k Key) bool { e := c.cache[k]; return e != nil && e.valid }
	pendingOf := func(sel func(Key, *cacheEntry) bool) {
		for _, q := range sortedWalk(c, sel) {
			m.hold(q.Key, q.Field, q.Clock)
		}
	}
	// issue runs one Update or UpdateBlocking and tells the model.
	issue := func(req Request, blocking bool) {
		clock++
		req.Clock = clock
		k := req.Key
		op := &issuedOp{clock: clock}
		issued[k] = append(issued[k], op)
		switch {
		case cacheable(k):
			if !valid(k) && req.Op != OpSet {
				m.flush(true)
				m.events = append(m.events, callEvent(k, 0))
			}
		case blocking:
			m.flush(true)
			m.events = append(m.events, callEvent(k, clock))
		case req.Op == OpIncr || req.Op == OpMapIncr:
			op.field, op.commutes = req.Field, true
			m.incr(k, req.Field, req.Op, clock)
			m.issued()
		default:
			m.seal()
			m.hold(k, req.Field, clock)
			m.issued()
		}
		if blocking {
			c.UpdateBlocking(nil, req)
		} else {
			c.Update(nil, req)
		}
	}

	// check compares what the verb put on the stub with the model and the
	// invariants.
	check := func(step int, verb string) {
		var events []string
		wals := walByShard(c)
		timers := net.timers[tmrMark:]
		for i := sentMark; i <= len(net.sent); i++ {
			for len(timers) > 0 && timers[0].sent == i {
				switch timers[0].d {
				case window:
					events = append(events, "window")
				case ackTimeout:
					events = append(events, "ack")
				default:
					fail("step %d %s: timer of %v scheduled", step, verb, timers[0].d)
				}
				timers = timers[1:]
			}
			if i == len(net.sent) {
				break
			}
			msg := net.sent[i]
			note := func(q *Request, async bool, seq uint64) {
				clocks := []uint64{q.Clock}
				for _, b := range q.Batch {
					clocks = append(clocks, b.Clock)
				}
				if async {
					events = append(events, sendEvent(q.Key, q.Field, clocks))
					asyncOps[seq] = clocks
					if seq <= lastSeq[msg.To] {
						fail("step %d %s: seq %d sent after %d on %s", step, verb, seq, lastSeq[msg.To], msg.To)
					}
					lastSeq[msg.To] = seq
				} else {
					events = append(events, callEvent(q.Key, q.Clock))
				}
				if c.shardFor(q.Key) != msg.To {
					fail("step %d %s: op on %v sent to %s", step, verb, q.Key, msg.To)
				}
				if q.Clock == 0 || !q.Op.Mutates() {
					return
				}
				for _, cl := range clocks {
					if earlier := arrive(issued[q.Key], cl); earlier != 0 {
						fail("step %d %s: key %v: clock %d is on the wire before clock %d, issued earlier", step, verb, q.Key, cl, earlier)
					}
				}
				wal := wals[msg.To]
				for _, cl := range clocks {
					if walNext[msg.To] >= len(wal) || wal[walNext[msg.To]] != cl {
						fail("step %d %s: clock %d on the wire to %s is not WAL entry %d there (%v)", step, verb, cl, msg.To, walNext[msg.To], wal)
					}
					walNext[msg.To]++
				}
				if q.WalPos != uint64(walNext[msg.To]) {
					fail("step %d %s: op %v carries WalPos %d, %d entries logged for %s up to it", step, verb, clocks, q.WalPos, walNext[msg.To], msg.To)
				}
			}
			switch pl := msg.Payload.(type) {
			case *Request:
				note(pl, false, 0)
			case AsyncBatchMsg:
				if len(pl.Ops) == 0 {
					fail("step %d %s: message of no ops", step, verb)
				}
				for _, op := range pl.Ops {
					note(op.Req, true, op.Seq)
				}
			default:
				fail("step %d %s: payload %T sent", step, verb, pl)
			}
		}
		sentMark, tmrMark = len(net.sent), len(net.timers)
		if !reflect.DeepEqual(events, m.events) {
			fail("step %d %s:\n got  %q\n want %q", step, verb, events, m.events)
		}
		m.events = nil
		if n := c.OutPending(); n != m.held() {
			fail("step %d %s: %d ops held, the model holds %d", step, verb, n, m.held())
		}
		if c.OutPending() == 0 {
			for _, shard := range c.pmap.Shards {
				if n := len(wals[shard]); n != walNext[shard] {
					fail("step %d %s: nothing held, %s has %d WAL entries and %d on the wire", step, verb, shard, n, walNext[shard])
				}
			}
		}
	}

	for step := 0; step < 400; step++ {
		sub := uint64(r.Intn(4))
		verb := ""
		switch v := r.Intn(24); {
		case v < 8:
			verb = "incr"
			n := 1
			if r.Intn(6) == 0 {
				n = 1 + r.Intn(2*coalesceMax) // long enough to hit the cap
			}
			req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1, Sub: sub}, Arg: IntVal(1)}
			if r.Intn(2) == 0 {
				req = Request{Op: OpMapIncr, Key: Key{Vertex: 1, Obj: 2, Sub: sub % 2}, Field: fmt.Sprint("f", r.Intn(2)), Arg: IntVal(1)}
			}
			for i := 0; i < n; i++ {
				issue(req, false)
			}
		case v < 10:
			verb = "set"
			if r.Intn(2) == 0 {
				issue(Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 1, Sub: sub}, Arg: IntVal(7)}, false)
			} else {
				// The other op kind on an increment's stream.
				issue(Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 2, Sub: sub % 2}, Field: "f0", Arg: IntVal(1)}, false)
			}
		case v < 12:
			verb = "blocking"
			issue(Request{Op: OpPopList, Key: Key{Vertex: 1, Obj: 1, Sub: sub}}, true)
		case v < 16:
			verb = "cached"
			obj := []uint16{3, 4, 5}[r.Intn(3)]
			issue(Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: obj, Sub: sub}, Arg: IntVal(1)}, r.Intn(4) == 0)
		case v == 16:
			verb = "FlushObject"
			k := Key{Vertex: 1, Obj: []uint16{3, 4, 5}[r.Intn(3)], Sub: sub}
			pendingOf(func(k2 Key, _ *cacheEntry) bool { return k2 == k })
			m.issued()
			c.FlushObject(k.Obj, k.Sub)
		case v == 17:
			verb = "ReleaseFlow"
			for _, obj := range []uint16{3, 5} {
				k := Key{Vertex: 1, Obj: obj, Sub: sub}
				pendingOf(func(k2 Key, _ *cacheEntry) bool { return k2 == k })
				m.issued()
				m.flush(true)
				m.events = append(m.events, callEvent(k, 0))
			}
			c.ReleaseFlow(nil, sub)
		case v < 20:
			verb = "SetExclusive"
			k := Key{Vertex: 1, Obj: 4, Sub: sub}
			excl := r.Intn(2) == 0
			if cacheable(k) && !excl {
				pendingOf(func(k2 Key, _ *cacheEntry) bool { return k2 == k })
				m.issued()
			}
			c.SetExclusive(4, sub, excl)
		case v == 20:
			verb = "FlushAll"
			pendingOf(func(Key, *cacheEntry) bool { return true })
			m.flush(true)
			c.FlushAll()
		case v < 23:
			verb = "FlushBurst"
			m.flush(false)
			c.FlushBurst()
		default:
			verb = "timer"
			if net.fire(window) > 0 {
				m.armed = false
				m.flush(true)
			}
		}
		check(step, verb)
	}

	pendingOf(func(Key, *cacheEntry) bool { return true })
	m.flush(true)
	c.FlushAll()
	check(-1, "final FlushAll")
	if n := c.OutPending(); n != 0 {
		fail("%d ops held after the final FlushAll", n)
	}
	shardsUsed := 0
	for _, shard := range c.pmap.Shards {
		if walNext[shard] > 0 {
			shardsUsed++
		}
	}
	if shardsUsed != 2 {
		fail("ops reached %d shards, want 2", shardsUsed)
	}
	for k, ops := range issued {
		for _, op := range ops {
			if op.sent != 1 {
				fail("key %v: clock %d reached the wire %d times, want 1", k, op.clock, op.sent)
			}
		}
	}

	// Unacked, every async op is offered again when its timer fires, once;
	// acked, never.
	if c.PendingAcks() != len(asyncOps) {
		fail("%d ops await an ack, %d were sent", c.PendingAcks(), len(asyncOps))
	}
	net.fire(ackTimeout)
	again := map[uint64]int{}
	for _, msg := range net.sent[sentMark:] {
		for _, op := range msg.Payload.(AsyncBatchMsg).Ops {
			again[op.Seq]++
		}
	}
	if len(again) != len(asyncOps) || int(c.Retransmits) != len(asyncOps) {
		fail("%d of %d unacked ops retransmitted (Retransmits=%d)", len(again), len(asyncOps), c.Retransmits)
	}
	var acked []uint64
	for seq := range asyncOps {
		if again[seq] != 1 {
			fail("seq %d retransmitted %d times", seq, again[seq])
		}
		acked = append(acked, seq)
	}
	// A server acknowledges a message's ops together: the first ack lists
	// one op, the second all the others, and an empty one changes nothing.
	c.HandleMessage(AckMsg{})
	if len(acked) > 0 {
		c.HandleMessage(AckMsg{Seqs: acked[:1]})
		c.HandleMessage(AckMsg{Seqs: acked[1:]})
	}
	sentMark = len(net.sent)
	net.fire(ackTimeout)
	if c.PendingAcks() != 0 || len(net.sent) != sentMark {
		fail("after every ack: %d pending, %d more messages", c.PendingAcks(), len(net.sent)-sentMark)
	}

	// A crashed instance drops what it holds.
	c.Update(nil, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: clock + 1})
	c.Update(nil, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 1, Sub: 1}, Arg: IntVal(1), Clock: clock + 2})
	c.Shutdown()
	if c.OutPending() != 0 || c.PendingAcks() != 0 {
		fail("after Shutdown: %d held, %d pending", c.OutPending(), c.PendingAcks())
	}
}

// issuedOp is one op the model test issued on a key. An increment commutes
// with increments of the key's other fields; every other pair of ops on a
// key must reach the wire in issue order.
type issuedOp struct {
	clock    uint64
	field    string
	commutes bool
	sent     int
}

// arrive marks clock as on the wire and returns the clock of an op issued
// before it on the same key that should have been there first, or 0.
func arrive(ops []*issuedOp, clock uint64) (earlier uint64) {
	for i, op := range ops {
		if op.clock != clock {
			continue
		}
		op.sent++
		for _, prev := range ops[:i] {
			if prev.sent == 0 && !(prev.commutes && op.commutes && prev.field != op.field) {
				return prev.clock
			}
		}
		return 0
	}
	return clock // never issued on this key
}

// walByShard returns, per shard, the clocks of c's WAL entries in log order.
func walByShard(c *Client) map[string][]uint64 {
	out := map[string][]uint64{}
	for _, shard := range c.pmap.Shards {
		for _, w := range c.WAL(shard) {
			out[shard] = append(out[shard], w.Clock)
		}
	}
	return out
}
