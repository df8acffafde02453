package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// outModel is the reference for the client's outbound path: which unsent
// increments are open for merging, and, when ops leave at issue (the DES
// mode), the exact sequence of sends, calls and timers each verb produces.
type outModel struct {
	heads  []*modelHead // open heads, oldest first
	armed  bool         // the window timer is scheduled and has not fired
	events []string     // the verb's expected stubNet events (DES mode)
}

type modelHead struct {
	key    Key
	field  string
	op     Op
	clocks []uint64
}

func sendEvent(k Key, field string, clocks []uint64) string {
	return fmt.Sprintf("send %v/%q %v", k, field, clocks)
}

func callEvent(k Key, clock uint64) string { return fmt.Sprintf("call %v %d", k, clock) }

// send expects one op on the wire and its retransmit timer after it.
func (m *outModel) send(k Key, field string, clocks ...uint64) {
	m.events = append(m.events, sendEvent(k, field, clocks), "ack")
}

// seal expects every open head on the wire, oldest first.
func (m *outModel) seal() {
	for _, h := range m.heads {
		m.send(h.key, h.field, h.clocks...)
	}
	m.heads = nil
}

// incr is a mergeable increment: it joins its stream's open head, or
// opens one — after a head at the cap, or of the other op kind, has left
// alone.
func (m *outModel) incr(k Key, field string, op Op, clock uint64) {
	for i, h := range m.heads {
		if h.key != k || h.field != field {
			continue
		}
		if h.op == op && len(h.clocks) < coalesceMax {
			h.clocks = append(h.clocks, clock)
			return
		}
		m.send(h.key, h.field, h.clocks...)
		m.heads = append(m.heads[:i], m.heads[i+1:]...)
		break
	}
	m.heads = append(m.heads, &modelHead{k, field, op, []uint64{clock}})
	if !m.armed {
		m.armed = true
		m.events = append(m.events, "window")
	}
}

func (m *outModel) held() (n int) {
	for _, h := range m.heads {
		n += len(h.clocks)
	}
	return n
}

// TestOutboundOrderModel drives a +NA client over two shards through
// random verbs, in both outbound modes (ops leave at issue, as on the DES;
// ops are held for FlushBurst, as on live), and checks after every verb:
// per key, ops reach the wire in issue order (except that increments of
// different fields of one map, which commute, may pass each other); per
// shard, they are a prefix of the WAL (all of it once nothing is held) and
// each op's WalPos is the count logged up to it; Seq is assigned in send
// order; a blocking call finds nothing held. At the end every clock issued
// has been on the wire exactly once, merged entries counted. At issue, the
// sends, calls and Schedule calls are exactly the model's — a head at the
// cap leaves alone, FlushObject and SetExclusive leave the open heads —
// and held, one flush sends at most one message per shard.
func TestOutboundOrderModel(t *testing.T) {
	for _, hold := range []bool{false, true} {
		t.Run(fmt.Sprintf("hold=%v", hold), func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				outboundModelRun(t, seed, hold)
			}
		})
	}
}

func outboundModelRun(t *testing.T, seed int64, hold bool) {
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
		CoalesceWindow: window, AckTimeout: ackTimeout, BurstRPC: hold})
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d hold=%v: %s", seed, hold, fmt.Sprintf(format, args...))
	}
	net.onCall = func(*Request) {
		if n := c.OutPending(); n != 0 {
			fail("a blocking call found %d ops held", n)
		}
	}

	var (
		m        outModel
		clock    uint64
		issued   = map[Key][]*issuedOp{} // per key, in issue order
		walNext  = map[string]int{}      // per shard: WAL entries matched to the wire so far
		lastSeq  = map[string]uint64{}   // per shard
		asyncOps = map[uint64][]uint64{} // seq -> clocks, every async op sent
		sentMark int
		tmrMark  int
		seqMark  uint64
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
			m.send(q.Key, q.Field, q.Clock)
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
				m.seal()
				m.events = append(m.events, callEvent(k, 0))
			}
		case blocking:
			m.seal()
			m.events = append(m.events, callEvent(k, clock))
		case req.Op == OpIncr || req.Op == OpMapIncr:
			op.field, op.commutes = req.Field, true
			m.incr(k, req.Field, req.Op, clock)
		default:
			m.seal()
			m.send(k, req.Field, clock)
		}
		if blocking {
			c.UpdateBlocking(nil, req)
		} else {
			c.Update(nil, req)
		}
	}

	// check compares what the verb put on the stub with the model and the
	// invariants; oneFlush marks verbs that flush exactly once.
	check := func(step int, verb string, oneFlush bool) {
		var events []string
		wals := walByShard(c)
		timers := net.timers[tmrMark:]
		perShardMsgs := map[string]int{}
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
					if seq <= lastSeq[msg.To] || (!hold && seq != seqMark+1) {
						fail("step %d %s: seq %d sent after %d on %s (last anywhere %d)", step, verb, seq, lastSeq[msg.To], msg.To, seqMark)
					}
					lastSeq[msg.To], seqMark = seq, max(seqMark, seq)
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
				perShardMsgs[msg.To]++
				if len(pl.Ops) == 0 || (!hold && len(pl.Ops) != 1) {
					fail("step %d %s: message of %d ops", step, verb, len(pl.Ops))
				}
				for _, op := range pl.Ops {
					note(op.Req, true, op.Seq)
				}
			default:
				fail("step %d %s: payload %T sent", step, verb, pl)
			}
		}
		sentMark, tmrMark = len(net.sent), len(net.timers)
		if !hold && !reflect.DeepEqual(events, m.events) {
			fail("step %d %s:\n got  %q\n want %q", step, verb, events, m.events)
		}
		m.events = nil
		if hold && oneFlush {
			for shard, n := range perShardMsgs {
				if n > 1 {
					fail("step %d %s: one flush sent %d messages to %s", step, verb, n, shard)
				}
			}
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
		verb, oneFlush := "", false
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
			verb, oneFlush = "blocking", true
			issue(Request{Op: OpPopList, Key: Key{Vertex: 1, Obj: 1, Sub: sub}}, true)
		case v < 16:
			verb = "cached"
			obj := []uint16{3, 4, 5}[r.Intn(3)]
			issue(Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: obj, Sub: sub}, Arg: IntVal(1)}, r.Intn(4) == 0)
		case v == 16:
			verb = "FlushObject"
			k := Key{Vertex: 1, Obj: []uint16{3, 4, 5}[r.Intn(3)], Sub: sub}
			pendingOf(func(k2 Key, _ *cacheEntry) bool { return k2 == k })
			c.FlushObject(k.Obj, k.Sub)
		case v == 17:
			verb = "ReleaseFlow"
			for _, obj := range []uint16{3, 5} {
				k := Key{Vertex: 1, Obj: obj, Sub: sub}
				pendingOf(func(k2 Key, _ *cacheEntry) bool { return k2 == k })
				m.seal()
				m.events = append(m.events, callEvent(k, 0))
			}
			c.ReleaseFlow(nil, sub)
		case v < 20:
			verb = "SetExclusive"
			k := Key{Vertex: 1, Obj: 4, Sub: sub}
			excl := r.Intn(2) == 0
			if cacheable(k) && !excl {
				pendingOf(func(k2 Key, _ *cacheEntry) bool { return k2 == k })
			}
			c.SetExclusive(4, sub, excl)
		case v == 20:
			verb, oneFlush = "FlushAll", true
			m.seal()
			pendingOf(func(Key, *cacheEntry) bool { return true })
			c.FlushAll()
		case v < 23:
			verb, oneFlush = "FlushBurst", true
			c.FlushBurst()
		default:
			verb, oneFlush = "timer", true
			if net.fire(window) > 0 {
				m.armed = false
				m.seal()
			}
		}
		check(step, verb, oneFlush)
		switch verb {
		case "blocking", "FlushAll", "timer":
			if n := c.OutPending(); n != 0 {
				fail("step %d: %d ops held after %s", step, n, verb)
			}
		case "FlushBurst":
			if n := c.OutPending(); n != m.held() {
				fail("step %d: %d ops held after FlushBurst, %d open for merging", step, n, m.held())
			}
		}
		if !hold && c.OutPending() != m.held() {
			fail("step %d %s: %d ops held, %d open for merging", step, verb, c.OutPending(), m.held())
		}
	}

	m.seal()
	pendingOf(func(Key, *cacheEntry) bool { return true })
	c.FlushAll()
	check(-1, "final FlushAll", true)
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
	for _, w := range c.WAL() {
		shard := c.shardFor(w.Req.Key)
		out[shard] = append(out[shard], w.Clock)
	}
	return out
}
