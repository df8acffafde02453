// Package transporttest is a conformance suite run against every
// transport.Transport implementation (the DES-backed simnet, the
// goroutine-backed livenet and the socket-backed netnet). It pins the
// substrate contract the chain runtime depends on: per-link FIFO
// ordering, loss/duplication injection on both legs of a call, crash
// fail-stop semantics, RPC round trips and timeouts, kill-unwind of
// blocked processes, and timer delivery and cancellation.
//
// The call cases pin what a substrate may reuse between one process's
// calls: a reply that misses its call (late, after a timeout; a second
// reply to a duplicated request; a reply to a killed caller) must never
// resolve the same process's next call.
package transporttest

import (
	"sync/atomic"
	"testing"
	"time"

	"chc/internal/transport"
)

// step is the per-assertion drive budget: virtual on the DES (instant),
// real in live mode (bounded).
const step = 250 * time.Millisecond

// Run executes the conformance suite; mk must return a fresh transport
// per invocation.
func Run(t *testing.T, mk func() transport.Transport) {
	t.Run("FIFOPerLink", func(t *testing.T) { testFIFO(t, mk()) })
	t.Run("FIFOPerLinkWithLatency", func(t *testing.T) { testFIFOLatency(t, mk()) })
	t.Run("LossInjection", func(t *testing.T) { testLoss(t, mk()) })
	t.Run("DupInjection", func(t *testing.T) { testDup(t, mk()) })
	t.Run("LatencyInjection", func(t *testing.T) { testLatency(t, mk()) })
	t.Run("CrashFailStop", func(t *testing.T) { testCrash(t, mk()) })
	t.Run("RestartCleanInbox", func(t *testing.T) { testRestart(t, mk()) })
	t.Run("CallRoundtrip", func(t *testing.T) { testCall(t, mk()) })
	t.Run("CallTimeout", func(t *testing.T) { testCallTimeout(t, mk()) })
	t.Run("ReplyLoss", func(t *testing.T) { testReplyLoss(t, mk()) })
	t.Run("KillMidCall", func(t *testing.T) { testKillMidCall(t, mk()) })
	t.Run("LateReplyAfterTimeout", func(t *testing.T) { testLateReply(t, mk()) })
	t.Run("DupCallResolvesOnce", func(t *testing.T) { testDupCall(t, mk()) })
	t.Run("ReplyWinsAtDeadline", func(t *testing.T) { testReplyAtDeadline(t, mk()) })
	t.Run("KillUnblocksRecv", func(t *testing.T) { testKill(t, mk()) })
	t.Run("ScheduleFires", func(t *testing.T) { testSchedule(t, mk()) })
	t.Run("ScheduleAfterShutdown", func(t *testing.T) { testScheduleAfterShutdown(t, mk()) })
	t.Run("BurstFIFO", func(t *testing.T) { testBurstFIFO(t, mk()) })
	t.Run("BurstFanOut", func(t *testing.T) { testBurstFanOut(t, mk()) })
	t.Run("BurstLoss", func(t *testing.T) { testBurstLoss(t, mk()) })
	t.Run("BurstDup", func(t *testing.T) { testBurstDup(t, mk()) })
	t.Run("BurstLatencyFIFO", func(t *testing.T) { testBurstLatency(t, mk()) })
	t.Run("BurstKillMidBurst", func(t *testing.T) { testBurstKill(t, mk()) })
}

// testFIFO: messages on one link arrive in send order.
func testFIFO(t *testing.T, tr transport.Transport) {
	const n = 200
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < n {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	for i := 0; i < n; i++ {
		tr.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
	}
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d messages (got %d)", n, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: got %d", i, v)
		}
	}
}

// testFIFOLatency: send order survives a nonzero link latency (delayed
// deliveries must be dispatched in order, not raced across timers).
func testFIFOLatency(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{Latency: 2 * time.Millisecond})
	const n = 100
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < n {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	for i := 0; i < n; i++ {
		tr.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
	}
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d delayed messages (got %d)", n, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delayed delivery at %d: got %d", i, v)
		}
	}
}

// testLoss: LossProb=1 drops everything; stats record the drops.
func testLoss(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{LossProb: 1.0})
	for i := 0; i < 10; i++ {
		tr.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
	}
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("lossy link delivered %d messages", n)
	}
	sent, delivered, dropped := tr.LinkStats("a", "b")
	if sent != 10 || delivered != 0 || dropped != 10 {
		t.Fatalf("stats sent=%d delivered=%d dropped=%d, want 10/0/10", sent, delivered, dropped)
	}
}

// testDup: DupProb=1 delivers every message twice.
func testDup(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{DupProb: 1.0})
	tr.Send(transport.Message{From: "a", To: "b", Payload: 7, Size: 8})
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 2 {
		t.Fatalf("dup link delivered %d copies, want 2", n)
	}
}

// testLatency: delivery is delayed by at least the configured latency.
func testLatency(t *testing.T, tr transport.Transport) {
	const lat = 20 * time.Millisecond
	tr.SetLink("a", "b", transport.LinkConfig{Latency: lat})
	done := tr.NewSignal()
	start := tr.Now()
	var arrived transport.Time
	tr.Spawn("rx", func(p transport.Proc) {
		tr.Endpoint("b").Recv(p)
		arrived = p.Now()
		done.Resolve(nil)
	})
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	if !tr.Drive(done, step) {
		t.Fatal("delayed message never arrived")
	}
	// Allow 1ms of scheduling slop under the configured latency (timer
	// granularity in live mode; the DES is exact).
	if got := arrived.Sub(start); got < lat-time.Millisecond {
		t.Fatalf("arrived after %v, want >= %v", got, lat)
	}
}

// testCrash: traffic to a crashed endpoint is dropped, and its queued
// inbox is cleared at crash time (fail-stop, no amnesia resurrection).
func testCrash(t *testing.T, tr transport.Transport) {
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	tr.Crash("b")
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("crash left %d messages queued", n)
	}
	tr.Send(transport.Message{From: "a", To: "b", Payload: 2, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("crashed endpoint received %d messages", n)
	}
	// Traffic FROM a crashed endpoint is dropped too.
	tr.Send(transport.Message{From: "b", To: "a", Payload: 3, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	if n := tr.Endpoint("a").Len(); n != 0 {
		t.Fatalf("crashed endpoint transmitted %d messages", n)
	}
}

// testRestart: a restarted endpoint starts empty and receives again.
func testRestart(t *testing.T, tr transport.Transport) {
	tr.Crash("b")
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	tr.Restart("b")
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("restart resurrected %d messages", n)
	}
	tr.Send(transport.Message{From: "a", To: "b", Payload: 2, Size: 8})
	tr.RunFor(5 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 1 {
		t.Fatalf("restarted endpoint has %d messages, want 1", n)
	}
}

// testCall: an RPC round trip returns the server's reply.
func testCall(t *testing.T, tr transport.Transport) {
	tr.Spawn("server", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			m := ep.Recv(p)
			if cm, ok := m.Payload.(transport.Call); ok {
				cm.Reply(cm.Body().(int)*2, 8)
			}
		}
	})
	if got, ok := callOnce(t, tr, 21); !ok || got.(int) != 42 {
		t.Fatalf("call returned %v ok=%v, want 42 true", got, ok)
	}
}

// testCallTimeout: a call to a crashed server times out with ok=false.
func testCallTimeout(t *testing.T, tr transport.Transport) {
	tr.Crash("srv")
	done := tr.NewSignal()
	var ok bool
	tr.Spawn("client", func(p transport.Proc) {
		_, ok = tr.Call(p, "cli", "srv", 1, 8, 10*time.Millisecond)
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("timed-out call did not return")
	}
	if ok {
		t.Fatal("call to crashed endpoint succeeded")
	}
}

// testReplyLoss: the reply leg meets the link model too. Over a return
// link that loses everything the call times out, and the return link
// counts the reply as sent and dropped.
func testReplyLoss(t *testing.T, tr transport.Transport) {
	tr.SetLink("srv", "cli", transport.LinkConfig{LossProb: 1.0})
	tr.Spawn("server", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			if cm, ok := ep.Recv(p).Payload.(transport.Call); ok {
				cm.Reply(cm.Body().(int)*2, 8)
			}
		}
	})
	if v, ok := callOnce(t, tr, 21); ok {
		t.Fatalf("call over a lossy return link returned %v", v)
	}
	sent, delivered, dropped := tr.LinkStats("srv", "cli")
	if sent != 1 || delivered != 0 || dropped != 1 {
		t.Fatalf("return link stats sent=%d delivered=%d dropped=%d, want 1/0/1", sent, delivered, dropped)
	}
}

// holdFirstCall spawns a server on "srv" that keeps the first call it
// receives unanswered and passes every later one to serve. held resolves
// once the kept call is in *first.
func holdFirstCall(tr transport.Transport, serve func(first, cm transport.Call)) (held transport.Signal, first *transport.Call) {
	held, first = tr.NewSignal(), new(transport.Call)
	tr.Spawn("server", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			cm, ok := ep.Recv(p).Payload.(transport.Call)
			if !ok {
				continue
			}
			if *first == nil {
				*first = cm
				held.Resolve(nil)
				continue
			}
			serve(*first, cm)
		}
	})
	return held, first
}

// callOnce runs one Call on a fresh process and drives it to completion.
func callOnce(t *testing.T, tr transport.Transport, body int) (any, bool) {
	t.Helper()
	done := tr.NewSignal()
	var v any
	var ok bool
	tr.Spawn("client", func(p transport.Proc) {
		v, ok = tr.Call(p, "cli", "srv", body, 8, step/2)
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("call did not complete")
	}
	return v, ok
}

// testKillMidCall: a process killed while blocked in Call unwinds (its
// defers run, the Call never returns), the reply that arrives afterwards
// goes nowhere, and calls from other processes still work.
func testKillMidCall(t *testing.T, tr transport.Transport) {
	held, first := holdFirstCall(tr, func(_, cm transport.Call) { cm.Reply(cm.Body().(int)*2, 8) })
	returned, unwound := tr.NewSignal(), tr.NewSignal()
	h := tr.Spawn("victim", func(p transport.Proc) {
		defer unwound.Resolve(nil)
		tr.Call(p, "cli", "srv", 1, 8, time.Minute)
		returned.Resolve(nil) // must never run
	})
	if !tr.Drive(held, step) {
		t.Fatal("server never received the call")
	}
	tr.Kill(h)
	if !tr.Drive(unwound, step) {
		t.Fatal("caller killed mid-Call did not unwind")
	}
	if returned.Resolved() {
		t.Fatal("killed caller returned from Call")
	}
	(*first).Reply(0, 8)
	tr.RunFor(5 * time.Millisecond)
	if v, ok := callOnce(t, tr, 21); !ok || v.(int) != 42 {
		t.Fatalf("call after a kill returned %v ok=%v, want 42 true", v, ok)
	}
}

// testLateReply: the server answers a call only after its caller timed
// out and called again; the late reply lands first on the same link, yet
// the second call returns its own reply.
func testLateReply(t *testing.T, tr transport.Transport) {
	holdFirstCall(tr, func(first, cm transport.Call) {
		first.Reply(-1, 8)
		cm.Reply(cm.Body().(int)*2, 8)
	})
	done := tr.NewSignal()
	var v1, v2 any
	var ok1, ok2 bool
	tr.Spawn("client", func(p transport.Proc) {
		v1, ok1 = tr.Call(p, "cli", "srv", 1, 8, 10*time.Millisecond)
		v2, ok2 = tr.Call(p, "cli", "srv", 21, 8, step/2)
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("calls did not complete")
	}
	if ok1 {
		t.Fatalf("held call returned %v, want a timeout", v1)
	}
	if !ok2 || v2.(int) != 42 {
		t.Fatalf("call after a timeout returned %v ok=%v, want 42 true (a late reply resolved it?)", v2, ok2)
	}
}

// testDupCall: with every request duplicated, the callee sees each call
// twice and answers each delivery with the next count; the caller gets
// the first answer to each call, exactly once.
func testDupCall(t *testing.T, tr transport.Transport) {
	tr.SetLink("cli", "srv", transport.LinkConfig{DupProb: 1.0})
	seenAll := tr.NewSignal()
	seen := 0
	tr.Spawn("server", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			cm, ok := ep.Recv(p).Payload.(transport.Call)
			if !ok {
				continue
			}
			seen++
			cm.Reply(seen, 8)
			if seen == 4 {
				seenAll.Resolve(nil)
			}
		}
	})
	done := tr.NewSignal()
	var v1, v2 any
	var ok1, ok2 bool
	tr.Spawn("client", func(p transport.Proc) {
		v1, ok1 = tr.Call(p, "cli", "srv", 1, 8, step/2)
		v2, ok2 = tr.Call(p, "cli", "srv", 2, 8, step/2)
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("calls did not complete")
	}
	if !tr.Drive(seenAll, step) {
		t.Fatal("callee did not see every call twice")
	}
	if !ok1 || v1.(int) != 1 || !ok2 || v2.(int) != 3 {
		t.Fatalf("calls returned (%v %v) (%v %v), want (1 true) (3 true)", v1, ok1, v2, ok2)
	}
}

// testReplyAtDeadline: a resolution at the very instant a wait's deadline
// falls is delivered, not reported as a timeout. Only the DES can place
// that instant: a resolution scheduled before the wait began runs first at
// the deadline. (A Call's own reply is always scheduled after its timer,
// so on the DES it loses an exact tie.) The live substrates stand on the
// re-check after the timer fires, under the lock the resolution takes.
func testReplyAtDeadline(t *testing.T, tr transport.Transport) {
	if tr.Live() {
		t.Skip("a live substrate cannot place a resolution at the deadline instant")
	}
	const d = 10 * time.Millisecond
	sig, done := tr.NewSignal(), tr.NewSignal()
	tr.Schedule(d, func() { sig.Resolve(42) })
	var v any
	var ok bool
	tr.Spawn("waiter", func(p transport.Proc) {
		v, ok = sig.WaitTimeout(p, d)
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("wait did not complete")
	}
	if !ok || v.(int) != 42 {
		t.Fatalf("wait returned %v ok=%v, want 42 true", v, ok)
	}
}

// testKill: killing a process blocked in Recv unwinds it; messages sent
// afterwards stay queued (no receiver consumes them).
func testKill(t *testing.T, tr transport.Transport) {
	received := tr.NewSignal()
	h := tr.Spawn("rx", func(p transport.Proc) {
		tr.Endpoint("b").Recv(p)
		received.Resolve(nil) // must never run
	})
	tr.RunFor(5 * time.Millisecond)
	tr.Kill(h)
	tr.RunFor(5 * time.Millisecond)
	tr.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	tr.RunFor(10 * time.Millisecond)
	if received.Resolved() {
		t.Fatal("killed process consumed a message")
	}
	if n := tr.Endpoint("b").Len(); n != 1 {
		t.Fatalf("inbox has %d messages, want 1 (unconsumed)", n)
	}
}

// burstOf builds k messages a->b with payloads base..base+k-1.
func burstOf(from, to string, base, k int) []transport.Message {
	msgs := make([]transport.Message, k)
	for i := range msgs {
		msgs[i] = transport.Message{From: from, To: to, Payload: base + i, Size: 8}
	}
	return msgs
}

// testBurstFIFO: SendBurst preserves send order within a burst, across
// consecutive bursts, and when interleaved with single Sends — the burst
// path is an optimization of N Sends, never a reordering.
func testBurstFIFO(t *testing.T, tr transport.Transport) {
	const bursts, per = 10, 16
	total := bursts*per + bursts // one plain Send between bursts
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < total {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	next := 0
	for i := 0; i < bursts; i++ {
		transport.SendBurst(tr, burstOf("a", "b", next, per))
		next += per
		tr.Send(transport.Message{From: "a", To: "b", Payload: next, Size: 8})
		next++
	}
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d burst messages (got %d)", total, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order burst delivery at %d: got %d", i, v)
		}
	}
}

// testBurstFanOut: one burst spanning several destinations delivers each
// destination's run in order (the live implementation batches per-mailbox
// runs; the split must not lose or reorder anything).
func testBurstFanOut(t *testing.T, tr transport.Transport) {
	const per = 20
	dsts := []string{"b", "c", "d"}
	var msgs []transport.Message
	for i := 0; i < per; i++ {
		for _, d := range dsts {
			msgs = append(msgs, transport.Message{From: "a", To: d, Payload: i, Size: 8})
		}
	}
	done := make([]transport.Signal, len(dsts))
	got := make([][]int, len(dsts))
	for di, d := range dsts {
		di, d := di, d
		done[di] = tr.NewSignal()
		tr.Spawn("rx."+d, func(p transport.Proc) {
			ep := tr.Endpoint(d)
			for len(got[di]) < per {
				m := ep.Recv(p)
				got[di] = append(got[di], m.Payload.(int))
			}
			done[di].Resolve(nil)
		})
	}
	transport.SendBurst(tr, msgs)
	for di, d := range dsts {
		if !tr.Drive(done[di], step) {
			t.Fatalf("destination %s did not drain its burst share (got %d)", d, len(got[di]))
		}
		for i, v := range got[di] {
			if v != i {
				t.Fatalf("destination %s out of order at %d: got %d", d, i, v)
			}
		}
	}
}

// testBurstLoss: loss applies per message inside a burst, and the link
// stats account each one.
func testBurstLoss(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{LossProb: 1.0})
	transport.SendBurst(tr, burstOf("a", "b", 0, 10))
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 0 {
		t.Fatalf("lossy link delivered %d burst messages", n)
	}
	sent, delivered, dropped := tr.LinkStats("a", "b")
	if sent != 10 || delivered != 0 || dropped != 10 {
		t.Fatalf("burst stats sent=%d delivered=%d dropped=%d, want 10/0/10", sent, delivered, dropped)
	}
}

// testBurstDup: duplication applies per message inside a burst.
func testBurstDup(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{DupProb: 1.0})
	transport.SendBurst(tr, burstOf("a", "b", 0, 5))
	tr.RunFor(10 * time.Millisecond)
	if n := tr.Endpoint("b").Len(); n != 10 {
		t.Fatalf("dup link delivered %d burst copies, want 10", n)
	}
}

// testBurstLatency: a burst over a delayed link keeps its order (delayed
// burst members go through the same ordered-dispatch path as singles).
func testBurstLatency(t *testing.T, tr transport.Transport) {
	tr.SetLink("a", "b", transport.LinkConfig{Latency: 2 * time.Millisecond})
	const n = 50
	done := tr.NewSignal()
	var got []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for len(got) < n {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
		}
		done.Resolve(nil)
	})
	transport.SendBurst(tr, burstOf("a", "b", 0, n))
	if !tr.Drive(done, step) {
		t.Fatalf("receiver did not drain %d delayed burst messages (got %d)", n, len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delayed burst delivery at %d: got %d", i, v)
		}
	}
}

// testBurstKill: killing a receiver that consumed part of a burst leaves
// the unconsumed remainder queued (kill-unwind does not tear the burst).
func testBurstKill(t *testing.T, tr transport.Transport) {
	const n = 8
	firstTwo := tr.NewSignal()
	h := tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		ep.Recv(p)
		ep.Recv(p)
		firstTwo.Resolve(nil)
		for {
			ep.Recv(p)
		}
	})
	transport.SendBurst(tr, burstOf("a", "b", 0, 2))
	if !tr.Drive(firstTwo, step) {
		t.Fatal("receiver did not consume the first burst")
	}
	tr.Kill(h)
	tr.RunFor(5 * time.Millisecond)
	transport.SendBurst(tr, burstOf("a", "b", 2, n))
	tr.RunFor(10 * time.Millisecond)
	if q := tr.Endpoint("b").Len(); q != n {
		t.Fatalf("inbox has %d messages after mid-burst kill, want %d unconsumed", q, n)
	}
}

// testSchedule: timers fire, and a later timer does not fire before an
// earlier one has.
func testSchedule(t *testing.T, tr transport.Transport) {
	// Timer callbacks run concurrently in live mode, so the cross-timer
	// ordering observation goes through signals (which synchronize).
	first := tr.NewSignal()
	order := tr.NewSignal()
	done := tr.NewSignal()
	tr.Schedule(time.Millisecond, func() { first.Resolve(nil) })
	tr.Schedule(10*time.Millisecond, func() {
		if first.Resolved() {
			order.Resolve(nil)
		}
		done.Resolve(nil)
	})
	if !tr.Drive(done, step) {
		t.Fatal("timers did not fire")
	}
	if !order.Resolved() {
		t.Fatal("later timer fired before earlier timer")
	}
}

// testScheduleAfterShutdown: Shutdown returns only after a running
// callback has, and neither a callback pending at Shutdown nor one
// scheduled after it ever runs. (The DES's Shutdown is a no-op: its
// callbacks run only while the caller drives it.)
func testScheduleAfterShutdown(t *testing.T, tr transport.Transport) {
	if !tr.Live() {
		t.Skip("the DES's Shutdown is a no-op")
	}
	const hold = 50 * time.Millisecond
	started, release := make(chan struct{}), make(chan struct{})
	var returned, ran atomic.Bool
	tr.Schedule(time.Millisecond, func() {
		close(started)
		<-release
		returned.Store(true)
	})
	tr.Schedule(hold/2, func() { ran.Store(true) }) // due while Shutdown waits
	select {
	case <-started:
	case <-time.After(step):
		t.Fatal("timer did not fire")
	}
	time.AfterFunc(hold, func() { close(release) })
	tr.Shutdown()
	if !returned.Load() {
		t.Fatal("Shutdown returned before a running callback did")
	}
	tr.Schedule(0, func() { ran.Store(true) })
	if time.Sleep(hold); ran.Load() {
		t.Fatal("a callback pending at or scheduled after Shutdown ran")
	}
}
