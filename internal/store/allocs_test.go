package store

import (
	"testing"
	"time"
)

// TestClientOutboundAllocs: a +NA client's outbound path allocates per
// message sent, not per op. One round is 32 non-blocking ops (28
// increments over four counters, so that most merge, and every eighth op a
// Set, which seals the open heads), FlushBurst, an ack for everything sent and the retransmit
// timer finding nothing to resend. A message costs at most four
// allocations: its ops, the Requests they point to, those Requests' Batch
// entries and the AsyncBatchMsg's box; the outbound list and the
// retransmit queue are reused. Clock 0 keeps the ops out of the WAL
// (TestWALAppendAllocs has that cost).
func TestClientOutboundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	const ackTimeout = time.Millisecond
	net := &stubNet{keep: true}
	c := NewClient(net, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
		Mode: ModeEOCNA, Decls: counterDecl, AckTimeout: ackTimeout})
	ack := &AckMsg{Seqs: make([]uint64, 0, 64)}
	msgs, ops, merged := 0, 0, 0
	round := func() {
		lo := c.seq + 1
		for i := 0; i < 32; i++ {
			req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1, Sub: uint64(i % 4)}, Arg: IntVal(1)}
			if i%8 == 7 {
				req.Op = OpSet
			}
			c.Update(nil, req)
		}
		c.FlushBurst()
		for _, m := range net.sent {
			msgs++
			for _, op := range m.Payload.(AsyncBatchMsg).Ops {
				ops++
				merged += len(op.Req.Batch)
			}
		}
		ack.Seqs = ack.Seqs[:0]
		for s := lo; s <= c.seq; s++ {
			ack.Seqs = append(ack.Seqs, s)
		}
		c.HandleMessage(ack)
		net.fire(ackTimeout)
		net.sent, net.timers = net.sent[:0], net.timers[:0]
	}
	for i := 0; i < 8; i++ {
		round() // grow the reused slices to their steady size
	}
	msgs, ops, merged = 0, 0, 0
	const runs = 200
	allocs := testing.AllocsPerRun(runs, round)
	if msgs == 0 || ops <= msgs || merged == 0 {
		t.Fatalf("%d messages carried %d ops and %d merged increments: want multi-op messages with merged ones", msgs, ops, merged)
	}
	perMsg := allocs * float64(runs+1) / float64(msgs)
	t.Logf("%.2f allocations per round, %.2f per message, %.1f ops per message", allocs, perMsg, float64(ops)/float64(msgs))
	if perMsg > 4 {
		t.Fatalf("%.2f allocations per message sent, want <= 4", perMsg)
	}
	if c.PendingAcks() != 0 || c.Retransmits != 0 {
		t.Fatalf("%d ops pending, %d retransmitted: every op was acked in time", c.PendingAcks(), c.Retransmits)
	}
}

// TestEngineDupLogAllocs: an increment with a clock, then the clock's
// prune, allocates nothing once the engine has pruned a clock: the pruned
// clock's duplicate-log list serves the next one.
func TestEngineDupLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	e := NewEngine(16)
	req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Instance: 1}
	step := func() {
		req.Clock++
		e.Apply(&req)
		e.PruneClock(req.Clock)
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("Apply + PruneClock: %v allocs, want 0", allocs)
	}
	if n := e.PendingClocks(); n != 0 {
		t.Fatalf("%d clocks still logged after their prune", n)
	}
}
