package store

import (
	"testing"
	"time"

	"chc/internal/vtime"
)

// TestCoalesceMergesIncrements: consecutive non-blocking increments on one
// key merge into a single batched wire op in +NA mode, with the sum intact
// and the duplicate-suppression log carrying every inducing clock.
func TestCoalesceMergesIncrements(t *testing.T) {
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	r.run(func(p *vtime.Proc) {
		for i := 0; i < 10; i++ {
			r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: uint64(i + 1)})
		}
	})
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 10 {
		t.Fatalf("value = %d, want 10", v.Int)
	}
	c := r.clients[0]
	if c.CoalescedOps != 9 {
		t.Fatalf("CoalescedOps = %d, want 9 (one head, nine merged)", c.CoalescedOps)
	}
	if c.AsyncOps != 1 {
		t.Fatalf("AsyncOps = %d, want 1 merged send", c.AsyncOps)
	}
	if r.server.AsyncServed != 1 {
		t.Fatalf("server served %d async ops, want 1", r.server.AsyncServed)
	}
	// Every absorbed clock must be individually suppressible on replay.
	if n := r.server.Engine().PendingClocks(); n != 10 {
		t.Fatalf("dup log holds %d clocks, want 10", n)
	}
}

// TestCoalesceBlockingBarrier: a blocking op flushes buffered increments
// first, so it observes everything the NF issued before it.
func TestCoalesceBlockingBarrier(t *testing.T) {
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	var got Value
	r.run(func(p *vtime.Proc) {
		r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(5), Clock: 1})
		got, _ = r.clients[0].Get(p, 1, 0, 2)
	})
	if got.Int != 5 {
		t.Fatalf("blocking read saw %d, want 5 (buffered incr must flush first)", got.Int)
	}
}

// TestCoalesceNonCoalescibleOrder: a non-coalescible async op (Set) flushes
// buffered increments before being sent, preserving per-key issue order.
func TestCoalesceNonCoalescibleOrder(t *testing.T) {
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	r.run(func(p *vtime.Proc) {
		r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(3), Clock: 1})
		r.clients[0].Update(p, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(100), Clock: 2})
	})
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 100 {
		t.Fatalf("value = %d, want 100 (incr-then-set order violated)", v.Int)
	}
}

// TestCoalesceWindowFlush: with no other trigger, the window timer flushes
// a buffered increment on its own.
func TestCoalesceWindowFlush(t *testing.T) {
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	r.sim.Spawn("test", func(p *vtime.Proc) {
		r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 1})
	})
	// Before the window expires nothing has been sent...
	r.sim.RunFor(5 * time.Microsecond)
	if r.server.AsyncServed != 0 {
		t.Fatalf("op sent before window expired")
	}
	if r.clients[0].OutPending() != 1 {
		t.Fatalf("pending = %d, want 1", r.clients[0].OutPending())
	}
	// ...after window + RTT it has been applied.
	r.sim.RunFor(defaultCoalesceWindow + 2*testLat + time.Millisecond)
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 1 {
		t.Fatalf("value = %d, want 1 after window flush", v.Int)
	}
}

// TestCoalesceCapFlush: the batch cap bounds merge size; a burst larger
// than the cap is split into multiple batched sends.
func TestCoalesceCapFlush(t *testing.T) {
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	r.run(func(p *vtime.Proc) {
		for i := 0; i < 2*coalesceMax; i++ {
			r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: uint64(i + 1)})
		}
	})
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 2*coalesceMax {
		t.Fatalf("value = %d, want %d", v.Int, 2*coalesceMax)
	}
	if r.clients[0].BatchedSends != 2 {
		t.Fatalf("BatchedSends = %d, want 2 (a burst of twice the cap)", r.clients[0].BatchedSends)
	}
}

// TestCoalesceReflushedKeyKeepsSendOrder: a key whose batch was flushed by
// the cap and then re-buffered must flush AFTER other keys buffered in
// between — and the WAL must record ops in send order, or the ts position
// markers would let recovery drop an unapplied op (lost update).
func TestCoalesceReflushedKeyKeepsSendOrder(t *testing.T) {
	decls := []ObjDecl{
		{ID: 1, Name: "a", Scope: ScopeGlobal, Pattern: WriteMostly},
		{ID: 2, Name: "b", Scope: ScopeGlobal, Pattern: WriteMostly},
	}
	r := newRig(t, 1, ModeEOCNA, decls)
	c := r.clients[0]
	kA, kB := Key{Vertex: 1, Obj: 1}, Key{Vertex: 1, Obj: 2}
	const last = coalesceMax + 2
	r.run(func(p *vtime.Proc) {
		for cl := uint64(1); cl <= coalesceMax; cl++ { // head A, filled to the cap
			c.Update(p, Request{Op: OpIncr, Key: kA, Arg: IntVal(1), Clock: cl})
		}
		c.Update(p, Request{Op: OpIncr, Key: kB, Arg: IntVal(1), Clock: coalesceMax + 1}) // head B
		c.Update(p, Request{Op: OpIncr, Key: kA, Arg: IntVal(1), Clock: last})            // cap: A's first head leaves, new head A
	})
	// WAL order must mirror send order: A's first batch, then B, then A's
	// second head.
	wal := c.WAL()
	if len(wal) != last {
		t.Fatalf("WAL holds %d entries, want %d", len(wal), last)
	}
	for i, w := range wal {
		if w.Clock != uint64(i+1) {
			t.Fatalf("WAL entry %d has clock %d, want %d (send order violated)", i, w.Clock, i+1)
		}
	}
	// The engine's ts position marker must end at the LAST sent op, proving
	// B was not overtaken by A's re-buffered head.
	if ts := r.server.Engine().TS()[1]; ts != last {
		t.Fatalf("ts marker = %d, want %d (application order diverged from WAL order)", ts, last)
	}
	if v, _ := r.server.Engine().Get(kA); v.Int != coalesceMax+1 {
		t.Fatalf("A = %d, want %d", v.Int, coalesceMax+1)
	}
	if v, _ := r.server.Engine().Get(kB); v.Int != 1 {
		t.Fatalf("B = %d, want 1", v.Int)
	}
}

// TestCoalesceDisabled: a negative window turns the path off entirely.
func TestCoalesceDisabled(t *testing.T) {
	r := newRigCfg(t, ModeEOCNA, counterDecl, func(cfg *ClientConfig) { cfg.CoalesceWindow = -1 })
	r.run(func(p *vtime.Proc) {
		for i := 0; i < 5; i++ {
			r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: uint64(i + 1)})
		}
	})
	if r.clients[0].CoalescedOps != 0 || r.clients[0].AsyncOps != 5 {
		t.Fatalf("coalesced=%d async=%d, want 0/5 with coalescing disabled",
			r.clients[0].CoalescedOps, r.clients[0].AsyncOps)
	}
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 5 {
		t.Fatalf("value = %d, want 5", v.Int)
	}
}

// TestEngineBatchPerClockDedup: replayed batches must not double-apply
// entries whose clocks already executed (a clone's coalescing buffer can
// batch a replayed op with fresh ones).
func TestEngineBatchPerClockDedup(t *testing.T) {
	e := NewEngine(4)
	k := Key{Vertex: 1, Obj: 1}
	// Clock 5 applied solo during the original run.
	e.Apply(&Request{Op: OpIncr, Key: k, Arg: IntVal(1), Clock: 5, Instance: 1})
	// Replay batches clocks 4,5,6 together; 5 must be suppressed.
	rep := e.Apply(&Request{Op: OpIncr, Key: k, Arg: IntVal(1), Clock: 4, Instance: 1,
		Batch: []BatchEntry{{Clock: 5, Delta: 1}, {Clock: 6, Delta: 1}}})
	if !rep.OK {
		t.Fatal("batch apply failed")
	}
	if v, _ := e.Get(k); v.Int != 3 {
		t.Fatalf("value = %d, want 3 (clock 5 double-applied?)", v.Int)
	}
	if e.Emulated != 1 {
		t.Fatalf("Emulated = %d, want 1", e.Emulated)
	}
	if n := e.PendingClocks(); n != 3 {
		t.Fatalf("dup log holds %d clocks, want 3", n)
	}
}

// TestEngineBatchCommitsPerClock: the Fig 6 XOR/delete check needs one
// commit signal per inducing packet, even for merged ops.
func TestEngineBatchCommitsPerClock(t *testing.T) {
	e := NewEngine(4)
	var commits []uint64
	e.SetHooks(Hooks{OnCommit: func(clock uint64, inst uint16, k Key) {
		commits = append(commits, clock)
	}})
	k := Key{Vertex: 1, Obj: 1}
	e.Apply(&Request{Op: OpIncr, Key: k, Arg: IntVal(1), Clock: 10, Instance: 1,
		Batch: []BatchEntry{{Clock: 11, Delta: 1}, {Clock: 12, Delta: 1}}})
	if len(commits) != 3 {
		t.Fatalf("got %d commits, want 3 (one per absorbed clock): %v", len(commits), commits)
	}
	for i, want := range []uint64{10, 11, 12} {
		if commits[i] != want {
			t.Fatalf("commit[%d] = %d, want %d", i, commits[i], want)
		}
	}
}

// TestEngineBatchFullyDuplicate: a batch whose every clock already applied
// is emulated wholesale (retransmission after partial replay).
func TestEngineBatchFullyDuplicate(t *testing.T) {
	e := NewEngine(4)
	k := Key{Vertex: 1, Obj: 1}
	req := &Request{Op: OpIncr, Key: k, Arg: IntVal(2), Clock: 1, Instance: 1,
		Batch: []BatchEntry{{Clock: 2, Delta: 3}}}
	e.Apply(req)
	rep := e.Apply(req)
	if !rep.Emulated {
		t.Fatal("duplicate batch not emulated")
	}
	if v, _ := e.Get(k); v.Int != 5 {
		t.Fatalf("value = %d, want 5 (batch re-applied)", v.Int)
	}
	if e.Emulated != 2 {
		t.Fatalf("Emulated = %d, want 2", e.Emulated)
	}
}

// TestEngineBatchMapIncr: coalescing covers per-field map increments too.
func TestEngineBatchMapIncr(t *testing.T) {
	e := NewEngine(4)
	k := Key{Vertex: 1, Obj: 2}
	rep := e.Apply(&Request{Op: OpMapIncr, Key: k, Field: "s001", Arg: IntVal(1), Clock: 1, Instance: 1,
		Batch: []BatchEntry{{Clock: 2, Delta: 1}, {Clock: 3, Delta: -1}}})
	if !rep.OK || rep.Val.Int != 1 {
		t.Fatalf("batched mapincr reply = %+v, want field total 1", rep)
	}
	if v, _ := e.Get(k); v.Map["s001"] != 1 {
		t.Fatalf("map field = %d, want 1", v.Map["s001"])
	}
}

// newRigCfg builds a single-client rig with a config override.
func newRigCfg(t *testing.T, mode Mode, decls []ObjDecl, tweak func(*ClientConfig)) *testRig {
	t.Helper()
	r := newRig(t, 0, mode, decls)
	cfg := ClientConfig{
		Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
		Mode: mode, Decls: decls,
	}
	tweak(&cfg)
	c := NewClient(r.net, cfg)
	r.clients = append(r.clients, c)
	endpoint := r.net.Endpoint("nfa")
	r.sim.Spawn("nfa.loop", func(p *vtime.Proc) {
		for {
			msg := endpoint.Recv(p)
			c.HandleMessage(msg.Payload)
		}
	})
	return r
}
