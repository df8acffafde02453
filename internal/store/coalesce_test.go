package store

import (
	"reflect"
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
	wal := c.WAL("store0")
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

// TestEngineBatchRetransmitAfterOwnerChange: a retransmitted request whose
// every clock already applied is emulated even after another instance took
// the key, coalesced or not. Answered Conflict, the client would get no ack
// and retransmit it forever.
func TestEngineBatchRetransmitAfterOwnerChange(t *testing.T) {
	k := Key{Vertex: 1, Obj: 1}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"single", Request{Op: OpIncr, Key: k, Arg: IntVal(2), Clock: 1, Instance: 1}},
		{"coalesced", Request{Op: OpIncr, Key: k, Arg: IntVal(2), Clock: 1, Instance: 1,
			Batch: []BatchEntry{{Clock: 2, Delta: 3}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(4)
			commits := 0
			e.SetHooks(Hooks{OnCommit: func(uint64, uint16, Key) { commits++ }})
			e.Apply(&tc.req)
			before, _ := e.Get(k)
			beforeCommits := commits
			if rep := e.Apply(&Request{Op: OpAssociate, Key: k, Instance: 2}); !rep.OK {
				t.Fatalf("associate = %+v", rep)
			}
			rep := e.Apply(&tc.req)
			if !rep.Emulated || rep.Conflict {
				t.Fatalf("retransmission = %+v, want emulated", rep)
			}
			if v, _ := e.Get(k); !v.Equal(before) {
				t.Fatalf("value = %v, want %v unchanged", v, before)
			}
			if commits != beforeCommits {
				t.Fatalf("%d commits after the retransmission, want %d", commits, beforeCommits)
			}
		})
	}
}

// FuzzCoalescedApply: a coalesced increment means what its entries mean
// applied one by one. The input gives the op, a history of single
// increments already applied, then the request's entries as (clock, delta)
// pairs; clocks come from a small range, so they repeat within the request
// and against the history. One engine gets the request coalesced, another
// gets each entry as a single request, and both then see the same again
// (a retransmission). Both must end on the same value, commit the same
// clocks as often and count the same emulated ops; the coalesced reply is
// emulated exactly when every single one was. A first pass emulated whole
// carries the last single's value; a retransmission's need not, since each
// entry of a coalesced request logs the merged result.
func FuzzCoalescedApply(f *testing.F) {
	// The engine cases above: (op, history, entries...).
	f.Add([]byte{0, 1, 5, 1, 4, 1, 5, 1, 6, 1})          // TestEngineBatchPerClockDedup
	f.Add([]byte{0, 0, 10, 1, 11, 1, 12, 1})             // TestEngineBatchCommitsPerClock
	f.Add([]byte{0, 0, 1, 2, 2, 3})                      // TestEngineBatchFullyDuplicate
	f.Add([]byte{1, 0, 1, 1, 2, 1, 3, 0xff})             // TestEngineBatchMapIncr
	f.Add([]byte{0, 0, 7, 1, 8, 1, 7, 1, 9, 1})          // TestBatchIntraBatchClockDedup
	f.Add([]byte{0, 2, 3, 1, 0, 1, 3, 1, 0, 2, 3, 4, 0}) // unclocked entries
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		op := OpIncr
		if data[0]&1 == 1 {
			op = OpMapIncr
		}
		k := Key{Vertex: 1, Obj: 1}
		req := func(b BatchEntry) Request {
			return Request{Op: op, Key: k, Field: "f", Arg: IntVal(b.Delta), Clock: b.Clock, Instance: 1}
		}
		var entries []BatchEntry
		for i := 2; i+1 < len(data) && len(entries) < 2*coalesceMax; i += 2 {
			entries = append(entries, BatchEntry{Clock: uint64(data[i] % 16), Delta: int64(int8(data[i+1]))})
		}
		nHist := min(int(data[1]%8), len(entries))
		hist, entries := entries[:nHist], entries[nHist:]
		if len(entries) == 0 {
			return
		}
		type run struct {
			e       *Engine
			commits map[uint64]int
		}
		newRun := func() *run {
			r := &run{e: NewEngine(4), commits: map[uint64]int{}}
			r.e.SetHooks(Hooks{OnCommit: func(clock uint64, _ uint16, _ Key) { r.commits[clock]++ }})
			for _, b := range hist {
				h := req(b)
				r.e.Apply(&h)
			}
			return r
		}
		value := func(e *Engine) int64 {
			v, _ := e.Get(k)
			if op == OpMapIncr {
				return v.Map["f"]
			}
			return v.Int
		}
		coal, single := newRun(), newRun()
		coalesced := req(entries[0])
		coalesced.Batch = entries[1:]
		for pass := 0; pass < 2; pass++ {
			rep := coal.e.Apply(&coalesced)
			var last Reply
			allEmulated := true
			for _, b := range entries {
				r := req(b)
				last = single.e.Apply(&r)
				allEmulated = allEmulated && last.Emulated
			}
			if rep.Emulated != allEmulated {
				t.Fatalf("pass %d: coalesced reply %+v, single replies all emulated: %v", pass, rep, allEmulated)
			}
			if pass == 0 && rep.Emulated && !rep.Val.Equal(last.Val) {
				t.Fatalf("pass %d: emulated coalesced reply %v, last single reply %v", pass, rep.Val, last.Val)
			}
			if !rep.Emulated && rep.Val.Int != value(coal.e) {
				t.Fatalf("pass %d: coalesced reply %v, value %d", pass, rep.Val, value(coal.e))
			}
			if a, b := value(coal.e), value(single.e); a != b {
				t.Fatalf("pass %d: coalesced value %d, singles %d", pass, a, b)
			}
			if coal.e.Emulated != single.e.Emulated {
				t.Fatalf("pass %d: coalesced emulated %d ops, singles %d", pass, coal.e.Emulated, single.e.Emulated)
			}
			if !reflect.DeepEqual(coal.commits, single.commits) {
				t.Fatalf("pass %d: coalesced commits %v, singles %v", pass, coal.commits, single.commits)
			}
		}
	})
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
