package store

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSelectTSPaperExample reproduces the worked example of Figure 7.
func TestSelectTSPaperExample(t *testing.T) {
	// Per-instance update logs (clocks of update ops only, in issue order).
	logs := map[uint16][]uint64{
		1: {9, 20, 15, 35},
		2: {11, 22, 25, 30},
		3: {8, 17, 23},
		4: {13, 31, 32},
	}
	ts19 := map[uint16]uint64{1: 20, 2: 11, 3: 8, 4: 13}
	ts27 := map[uint16]uint64{1: 15, 2: 25, 3: 17, 4: 13}
	ts18 := map[uint16]uint64{1: 15, 2: 30, 3: 17, 4: 31}
	cands := []TSCandidate{
		{TS: ts19, Val: IntVal(19)},
		{TS: ts27, Val: IntVal(27)},
		{TS: ts18, Val: IntVal(18)},
	}
	sel := SelectTS(logs, cands)
	if sel != 2 {
		t.Fatalf("selected candidate %d, want 2 (TS18, the most recent read)", sel)
	}
}

func TestSelectTSNoReads(t *testing.T) {
	// Only the checkpoint candidate: it must be selected.
	logs := map[uint16][]uint64{1: {5, 9}}
	cands := []TSCandidate{{TS: map[uint16]uint64{1: 3}, Val: IntVal(0)}}
	if sel := SelectTS(logs, cands); sel != 0 {
		t.Fatalf("sel = %d", sel)
	}
}

func TestSelectTSEmptyCandidates(t *testing.T) {
	if sel := SelectTS(nil, nil); sel != -1 {
		t.Fatalf("sel = %d, want -1", sel)
	}
}

// TestRecoverSharedReadConsistency: the recovered value must match what a
// client already observed in a read (§5.4 Case 2).
func TestRecoverSharedReadConsistency(t *testing.T) {
	key := Key{Vertex: 1, Obj: 1}
	// I1 increments +1 at clocks 1,3; I2 increments +10 at clocks 2,4.
	// Store applied 1,2,3, then I2 read (value 12, TS {1:3, 2:2}), then 4.
	read := ReadRecord{Key: key, Val: IntVal(12), TS: map[uint16]uint64{1: 3, 2: 2}, Clock: 5}
	mkReq := func(c uint64, inst uint16, d int64) WalOp {
		return WalOp{Clock: c, Req: Request{Op: OpIncr, Key: key, Arg: IntVal(d), Clock: c, Instance: inst}}
	}
	in := RecoverInput{
		Clients: []ClientState{
			{Instance: 1, WAL: []WalOp{mkReq(1, 1, 1), mkReq(3, 1, 1)}},
			{Instance: 2, WAL: []WalOp{mkReq(2, 2, 10), mkReq(4, 2, 10)}, ReadLog: []ReadRecord{read}},
		},
	}
	e, reexec := RecoverEngine(in)
	v, _ := e.Get(key)
	if v.Int != 22 {
		t.Fatalf("recovered = %d, want 22 (1+10+1+10)", v.Int)
	}
	// Only the op after the read's TS should re-execute for I2 (clock 4),
	// and none for I1 (clock 3 already covered): init from read value 12.
	if reexec != 1 {
		t.Fatalf("re-executed %d ops, want 1", reexec)
	}
}

// TestRecoverCase1FromCheckpoint: no reads since the checkpoint; recovery
// re-executes from the checkpoint TS.
func TestRecoverCase1FromCheckpoint(t *testing.T) {
	key := Key{Vertex: 1, Obj: 1}
	ckpt := &Snapshot{
		Entries: map[Key]Value{key: IntVal(7)},
		Owners:  map[Key]uint16{},
		TS:      map[uint16]uint64{1: 3, 2: 4},
	}
	mk := func(c uint64, inst uint16, d int64) WalOp {
		return WalOp{Clock: c, Req: Request{Op: OpIncr, Key: key, Arg: IntVal(d), Clock: c, Instance: inst}}
	}
	in := RecoverInput{
		Checkpoint: ckpt,
		Clients: []ClientState{
			// I1: clocks 1,3 covered; 5 is new. I2: 2,4 covered; 6 new.
			{Instance: 1, WAL: []WalOp{mk(1, 1, 1), mk(3, 1, 1), mk(5, 1, 1)}},
			{Instance: 2, WAL: []WalOp{mk(2, 2, 10), mk(4, 2, 10), mk(6, 2, 10)}},
		},
	}
	e, reexec := RecoverEngine(in)
	v, _ := e.Get(key)
	if v.Int != 18 {
		t.Fatalf("recovered = %d, want 18 (ckpt 7 + 1 + 10)", v.Int)
	}
	if reexec != 2 {
		t.Fatalf("re-executed %d, want 2", reexec)
	}
}

// TestRecoverPerFlowFromCaches: per-flow state comes from NF caches with
// ownership restored (Theorem B.5.1).
func TestRecoverPerFlowFromCaches(t *testing.T) {
	kf := Key{Vertex: 1, Obj: 2, Sub: 55}
	in := RecoverInput{
		Clients: []ClientState{
			{Instance: 3, PerFlow: map[Key]Value{kf: IntVal(41)}},
		},
	}
	e, _ := RecoverEngine(in)
	if v, ok := e.Get(kf); !ok || v.Int != 41 {
		t.Fatalf("per-flow = %v,%v", v, ok)
	}
	if e.Owner(kf) != 3 {
		t.Fatalf("owner = %d, want 3", e.Owner(kf))
	}
}

// Property (Theorems B.5.2/B.5.3 for commutative updates): for random
// increment workloads, random checkpoint position and random crash point,
// the recovered value equals the no-failure value.
func TestRecoverEquivalenceProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		key := Key{Vertex: 1, Obj: 1}
		nInst := r.Intn(3) + 2
		nOps := r.Intn(60) + 10

		type issued struct {
			inst  uint16
			clock uint64
			delta int64
		}
		var ops []issued
		for i := 0; i < nOps; i++ {
			ops = append(ops, issued{
				inst:  uint16(r.Intn(nInst) + 1),
				clock: uint64(i + 1),
				delta: int64(r.Intn(9) + 1),
			})
		}
		// The "true" (no-failure) engine applies everything.
		truth := NewEngine(4)
		var want int64
		for _, op := range ops {
			truth.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(op.delta), Clock: op.clock, Instance: op.inst})
			want += op.delta
		}

		// Simulate: apply ops in order on a victim engine; checkpoint at a
		// random index; clients read at random points (recording TS).
		victim := NewEngine(4)
		ckptAt := r.Intn(nOps)
		var ckpt *Snapshot
		wals := make(map[uint16][]WalOp)
		reads := make(map[uint16][]ReadRecord)
		for i, op := range ops {
			victim.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(op.delta), Clock: op.clock, Instance: op.inst})
			wals[op.inst] = append(wals[op.inst], WalOp{Clock: op.clock,
				Req: Request{Op: OpIncr, Key: key, Arg: IntVal(op.delta), Clock: op.clock, Instance: op.inst}})
			if i == ckptAt {
				ckpt = victim.Snapshot()
			}
			if r.Intn(4) == 0 {
				inst := uint16(r.Intn(nInst) + 1)
				rep := victim.Apply(&Request{Op: OpGet, Key: key, WantTS: true, Instance: inst})
				reads[inst] = append(reads[inst], ReadRecord{Key: key, Val: rep.Val, TS: rep.TS, Clock: op.clock})
			}
		}
		// Crash now; rebuild from ckpt + WALs + read logs.
		var clients []ClientState
		for i := 1; i <= nInst; i++ {
			clients = append(clients, ClientState{
				Instance: uint16(i), WAL: wals[uint16(i)], ReadLog: reads[uint16(i)],
			})
		}
		rec, _ := RecoverEngine(RecoverInput{Checkpoint: ckpt, Clients: clients})
		got, _ := rec.Get(key)
		return got.Int == want
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCoalescedGroups: logOp logs a coalesced increment as its head,
// Batch included, followed by each clocked entry on its own. Recovery
// replays both; replaying the head must log every entry's clock, so that
// the single copies are emulated, never applied a second time. Full
// replay, and replay from a checkpoint cut at a group's WalPos (the
// client's WAL whole, or truncated there), restore every counter exactly.
func TestRecoverCoalescedGroups(t *testing.T) {
	keys := []Key{{Vertex: 1, Obj: 1, Sub: 1}, {Vertex: 1, Obj: 1, Sub: 2}, {Vertex: 1, Obj: 2, Sub: 1}}
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa"})
		victim := NewEngine(4)
		groups := 10 + r.Intn(20)
		cut := r.Intn(groups)
		var ckpt *Snapshot
		var clock uint64
		entries := 0 // clocked Batch entries: each is also logged on its own
		for g := 0; g < groups; g++ {
			key := keys[r.Intn(len(keys))]
			clock++
			req := Request{Op: OpIncr, Key: key, Arg: IntVal(1 + r.Int63n(9)), Clock: clock, Instance: 1}
			if key.Obj == 2 {
				req.Op, req.Field = OpMapIncr, "f"
			}
			for range r.Intn(5) {
				clock++
				req.Batch = append(req.Batch, BatchEntry{Clock: clock, Delta: r.Int63n(19) - 9})
				entries++
			}
			c.logOp(&req)
			victim.Apply(&req)
			if g == cut {
				ckpt = victim.Snapshot()
				ckpt.Pos = map[uint16]uint64{1: req.WalPos}
			}
		}
		want := digestNoTS(victim)
		wal := c.WAL("")
		if len(wal) != groups+entries {
			t.Fatalf("seed %d: WAL holds %d entries, want %d heads and %d entries", seed, len(wal), groups, entries)
		}

		full, _ := RecoverEngine(RecoverInput{Clients: []ClientState{{Instance: 1, WAL: wal}}})
		if got := digestNoTS(full); got != want {
			t.Fatalf("seed %d: full replay diverges:\n  want %s\n  got  %s", seed, want, got)
		}
		if full.Emulated != uint64(entries) {
			t.Fatalf("seed %d: full replay emulated %d ops, want the %d single copies", seed, full.Emulated, entries)
		}
		pos := ckpt.Pos[1]
		for _, cs := range []ClientState{
			{Instance: 1, WAL: wal},
			{Instance: 1, WAL: wal[pos:], Dropped: pos},
		} {
			e, _ := RecoverEngine(RecoverInput{Checkpoint: ckpt, Clients: []ClientState{cs}})
			if got := digestNoTS(e); got != want {
				t.Fatalf("seed %d: replay from the checkpoint at WAL position %d (%d dropped) diverges:\n  want %s\n  got  %s",
					seed, pos, cs.Dropped, want, got)
			}
		}
	}
}
