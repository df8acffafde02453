package store

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// digestNoTS is the comparison digest for recovery-equivalence tests: the
// content ID of the canonical encoding with the TS vector stripped. The TS
// vector legitimately differs between full-WAL replay and checkpoint+tail
// replay (per-key replay order leaves a different "last mutation" per
// instance) while the recovered data must not.
func digestNoTS(e *Engine) string {
	snap := e.Snapshot()
	snap.TS = map[uint16]uint64{}
	return Identify(EncodeSnapshot(snap))
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	s := &Snapshot{
		Entries: map[Key]Value{
			{Vertex: 1, Obj: 1, Sub: 0}:  IntVal(42),
			{Vertex: 1, Obj: 2, Sub: 9}:  FloatVal(3.25),
			{Vertex: 2, Obj: 1, Sub: 7}:  BytesVal([]byte("hello")),
			{Vertex: 2, Obj: 3, Sub: 1}:  ListVal(5, -1, 9),
			{Vertex: 3, Obj: 1, Sub: 2}:  MapVal(map[string]int64{"b": 2, "a": 1}),
			{Vertex: 3, Obj: 1, Sub: 3}:  {},
			{Vertex: 3, Obj: 1, Sub: 44}: IntVal(-17),
		},
		Owners: map[Key]uint16{
			{Vertex: 1, Obj: 2, Sub: 9}: 3,
			{Vertex: 2, Obj: 1, Sub: 7}: 1,
		},
		TS: map[uint16]uint64{1: 99, 4: 12},
	}
	data := EncodeSnapshot(s)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(s.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(s.Entries))
	}
	for k, v := range s.Entries {
		if gv, ok := got.Entries[k]; !ok || !gv.Equal(v) {
			t.Fatalf("entry %v = %+v, want %+v", k, gv, v)
		}
	}
	for k, o := range s.Owners {
		if got.Owners[k] != o {
			t.Fatalf("owner %v = %d, want %d", k, got.Owners[k], o)
		}
	}
	for i, c := range s.TS {
		if got.TS[i] != c {
			t.Fatalf("ts[%d] = %d, want %d", i, got.TS[i], c)
		}
	}
}

func TestSnapshotEncodingCanonical(t *testing.T) {
	// Same logical snapshot assembled twice (map insertion order differs);
	// the canonical encodings must be byte-identical.
	build := func(perm []int) *Snapshot {
		s := &Snapshot{Entries: map[Key]Value{}, Owners: map[Key]uint16{}, TS: map[uint16]uint64{}}
		for _, i := range perm {
			k := Key{Vertex: uint16(i % 3), Obj: uint16(i % 5), Sub: uint64(i)}
			s.Entries[k] = MapVal(map[string]int64{"x": int64(i), "y": int64(-i)})
			s.Owners[k] = uint16(i % 4)
			s.TS[uint16(i)] = uint64(i * 7)
		}
		return s
	}
	fwd := make([]int, 40)
	rev := make([]int, 40)
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(rev) - 1 - i
	}
	a, b := EncodeSnapshot(build(fwd)), EncodeSnapshot(build(rev))
	if string(a) != string(b) {
		t.Fatal("encoding depends on construction order")
	}
	if string(EncodeSnapshot(build(fwd))) != string(a) {
		t.Fatal("encoding not deterministic across calls")
	}
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	s := &Snapshot{
		Entries: map[Key]Value{{Vertex: 1, Obj: 1, Sub: 3}: BytesVal([]byte("payload"))},
		Owners:  map[Key]uint16{},
		TS:      map[uint16]uint64{1: 5},
	}
	data := EncodeSnapshot(s)
	for _, cut := range []int{len(data) / 2, len(data) - 1} {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", cut, len(data))
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// FuzzDecodeSnapshot feeds DecodeSnapshot arbitrary bytes, seeded with
// real encodings and their truncations. Each input must fail to decode, or
// decode to a snapshot whose encoding decodes to an equal snapshot (equal
// canonical encodings, so a NaN float compares by its bits). No input may
// panic, and none may make the decoder allocate more than a fixed multiple
// of its length: every count is bounded by the bytes behind it.
func FuzzDecodeSnapshot(f *testing.F) {
	seeds := []*Snapshot{
		{},
		{
			Entries: map[Key]Value{
				{Vertex: 1, Obj: 1}:         IntVal(-3),
				{Vertex: 1, Obj: 2, Sub: 9}: MapVal(map[string]int64{"b": 2, "a": 1}),
				{Vertex: 2, Obj: 1, Sub: 7}: ListVal(5, 6),
				{Vertex: 2, Obj: 3, Sub: 1}: BytesVal([]byte("hi")),
				{Vertex: 3, Obj: 1, Sub: 2}: FloatVal(0.5),
			},
			Owners: map[Key]uint16{{Vertex: 1, Obj: 1}: 2},
			TS:     map[uint16]uint64{1: 99, 4: 12},
			Pos:    map[uint16]uint64{1: 7},
		},
	}
	for _, s := range seeds {
		data := EncodeSnapshot(s)
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	f.Add([]byte(snapshotMagic + "\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := DecodeSnapshot(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := EncodeSnapshot(s)
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(EncodeSnapshot(again), enc) {
			t.Fatalf("round trip changed the snapshot:\n %+v\n %+v", s, again)
		}
	})
}

func TestIdentify(t *testing.T) {
	id := Identify([]byte("some checkpoint bytes"))
	if !strings.HasPrefix(id, "c4") || len(id) != 90 {
		t.Fatalf("id = %q (len %d), want c4-prefixed 90 chars", id, len(id))
	}
	if Identify([]byte("some checkpoint bytes")) != id {
		t.Fatal("Identify not deterministic")
	}
	if Identify([]byte("some checkpoint byteS")) == id {
		t.Fatal("single-bit-ish change kept the same ID")
	}
	for _, c := range id[2:] {
		if !strings.ContainsRune(b58Alphabet, c) {
			t.Fatalf("id contains non-base58 char %q", c)
		}
	}
}

func TestStableTornCheckpointSkipped(t *testing.T) {
	st := &Stable{}
	good := EncodeSnapshot(&Snapshot{Entries: map[Key]Value{{Vertex: 1, Obj: 1}: IntVal(7)},
		Owners: map[Key]uint16{}, TS: map[uint16]uint64{1: 3}})
	ck1 := &StoredCheckpoint{ID: Identify(good), Data: good}
	st.begin(ck1)
	st.commit(ck1)
	// Crash mid-write: begun, never committed.
	torn := &StoredCheckpoint{ID: Identify([]byte("partial")), Data: []byte("part")}
	st.begin(torn)

	snap, ck, skipped := st.LatestVerified()
	if snap == nil || ck != ck1 || skipped != 1 {
		t.Fatalf("LatestVerified = %v, %v, skipped=%d; want ck1, skipped=1", snap, ck, skipped)
	}
	if v := snap.Entries[Key{Vertex: 1, Obj: 1}]; v.Int != 7 {
		t.Fatalf("recovered entry = %+v", v)
	}
	cs := st.Stats()
	if cs.Taken != 1 || cs.Retained != 1 || cs.Torn != 1 {
		t.Fatalf("stats = %+v", cs)
	}
}

func TestStableCorruptCheckpointFallsBack(t *testing.T) {
	st := &Stable{}
	mk := func(val int64) *StoredCheckpoint {
		data := EncodeSnapshot(&Snapshot{Entries: map[Key]Value{{Vertex: 1, Obj: 1}: IntVal(val)},
			Owners: map[Key]uint16{}, TS: map[uint16]uint64{1: uint64(val)}})
		ck := &StoredCheckpoint{ID: Identify(data), Data: data}
		st.begin(ck)
		st.commit(ck)
		return ck
	}
	mk(1)
	newest := mk(2)
	// Bit-flip the newest committed checkpoint in stable storage.
	newest.Data[len(newest.Data)/2] ^= 0x40

	snap, _, skipped := st.LatestVerified()
	if snap == nil || skipped != 1 {
		t.Fatalf("snap=%v skipped=%d, want fallback with skipped=1", snap, skipped)
	}
	if v := snap.Entries[Key{Vertex: 1, Obj: 1}]; v.Int != 1 {
		t.Fatalf("fell back to entry %+v, want the older value 1", v)
	}
	if cs := st.Stats(); cs.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", cs.Rejected)
	}
}

func TestStableRetention(t *testing.T) {
	st := &Stable{}
	var last *StoredCheckpoint
	for i := int64(1); i <= 5; i++ {
		data := EncodeSnapshot(&Snapshot{Entries: map[Key]Value{{Vertex: 1, Obj: 1}: IntVal(i)},
			Owners: map[Key]uint16{}, TS: map[uint16]uint64{}})
		ck := &StoredCheckpoint{ID: Identify(data), Data: data}
		st.begin(ck)
		st.commit(ck)
		last = ck
	}
	cs := st.Stats()
	if cs.Taken != 5 || cs.Retained != 2 || cs.LastID != last.ID {
		t.Fatalf("stats = %+v", cs)
	}
	if cks := st.Checkpoints(); len(cks) != 2 || cks[1] != last {
		t.Fatalf("checkpoints = %v", cks)
	}
}

// TestRecoverDeterminism pins the satellite fix: equal clocks from
// different instances used to tie-break on map iteration order (and with
// (clock,key)-keyed duplicate suppression, whichever op applied first won
// permanently). The order is now total — clock, then instance, then WAL
// position — so recovery is a pure function of its input.
func TestRecoverDeterminism(t *testing.T) {
	k := Key{Vertex: 1, Obj: 1}
	set := func(c uint64, inst uint16, v int64) WalOp {
		return WalOp{Clock: c, Req: Request{Op: OpSet, Key: k, Arg: IntVal(v), Clock: c, Instance: inst}}
	}
	in := RecoverInput{Clients: []ClientState{
		{Instance: 1, WAL: []WalOp{set(5, 1, 100)}},
		{Instance: 2, WAL: []WalOp{set(5, 2, 200)}},
	}}
	e, _ := RecoverEngine(in)
	// Instance 1 sorts first at the shared clock; instance 2's op is then
	// absorbed as a (clock,key) duplicate.
	if v, _ := e.Get(k); v.Int != 100 {
		t.Fatalf("equal-clock winner = %d, want instance 1's 100", v.Int)
	}

	// Seeded bulk input with many cross-instance clock collisions: two
	// recoveries of the same input must produce identical engine digests.
	r := rand.New(rand.NewSource(7))
	var clients []ClientState
	for inst := uint16(1); inst <= 4; inst++ {
		cs := ClientState{Instance: inst}
		for j := 0; j < 200; j++ {
			key := Key{Vertex: 1, Obj: uint16(1 + r.Intn(3)), Sub: uint64(r.Intn(8))}
			clock := uint64(1 + r.Intn(50)) // dense: frequent collisions
			cs.WAL = append(cs.WAL, WalOp{Clock: clock,
				Req: Request{Op: OpSet, Key: key, Arg: IntVal(int64(inst)*1000 + int64(j)), Clock: clock, Instance: inst}})
		}
		clients = append(clients, cs)
	}
	e1, n1 := RecoverEngine(RecoverInput{Clients: clients})
	e2, n2 := RecoverEngine(RecoverInput{Clients: clients})
	if n1 != n2 {
		t.Fatalf("reexec differs across runs: %d vs %d", n1, n2)
	}
	if d1, d2 := digestNoTS(e1), digestNoTS(e2); d1 != d2 {
		t.Fatalf("recovery digests differ:\n  %s\n  %s", d1, d2)
	}
}

// TestRecoverEquivalenceCheckpointTail is the store-level differential:
// over seeded random multi-instance histories, full-WAL replay and
// checkpoint+truncated-tail replay recover byte-identical state (canonical
// encoding, TS stripped — see digestNoTS).
func TestRecoverEquivalenceCheckpointTail(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		nInst := 2 + r.Intn(3)
		nOps := 40 + r.Intn(80)

		victim := NewEngine(4)
		wals := make(map[uint16][]WalOp)
		applied := make(map[uint16]int) // WAL position applied so far
		var ckpt *Snapshot
		tailFrom := make(map[uint16]int)
		ckptAt := r.Intn(nOps)
		for i := 0; i < nOps; i++ {
			inst := uint16(1 + r.Intn(nInst))
			key := Key{Vertex: 1, Obj: uint16(1 + r.Intn(2)), Sub: uint64(r.Intn(6))}
			op := OpIncr
			if r.Intn(4) == 0 {
				op = OpSet
			}
			req := Request{Op: op, Key: key, Arg: IntVal(int64(r.Intn(20) + 1)),
				Clock: uint64(i + 1), Instance: inst}
			victim.Apply(&req)
			wals[inst] = append(wals[inst], WalOp{Clock: req.Clock, Req: req})
			applied[inst] = len(wals[inst])
			if i == ckptAt {
				// The checkpoint covers exactly the applied prefix; the
				// client-side truncation that follows it drops that prefix.
				ckpt = victim.Snapshot()
				for in2, n := range applied {
					tailFrom[in2] = n
				}
			}
		}

		var full, tail, tailPos []ClientState
		for inst := uint16(1); inst <= uint16(nInst); inst++ {
			full = append(full, ClientState{Instance: inst, WAL: wals[inst]})
			tail = append(tail, ClientState{Instance: inst, WAL: wals[inst][tailFrom[inst]:]})
			tailPos = append(tailPos, ClientState{Instance: inst,
				WAL: wals[inst][tailFrom[inst]:], Dropped: uint64(tailFrom[inst])})
		}
		eFull, _ := RecoverEngine(RecoverInput{Clients: full})
		eTail, _ := RecoverEngine(RecoverInput{Checkpoint: ckpt, Clients: tail})
		if dF, dT := digestNoTS(eFull), digestNoTS(eTail); dF != dT {
			t.Fatalf("seed %d: full-replay and ckpt+tail recovery diverge:\n  full %s\n  tail %s",
				seed, dF, dT)
		}
		// Same differential through the positional cutoff: the checkpoint
		// carries its exact WAL-position vector and the clients report the
		// truncated prefix length.
		ckptP := *ckpt
		ckptP.Pos = make(map[uint16]uint64, len(tailFrom))
		for in2, n := range tailFrom {
			ckptP.Pos[in2] = uint64(n)
		}
		ePos, _ := RecoverEngine(RecoverInput{Checkpoint: &ckptP, Clients: tailPos})
		if dF, dP := digestNoTS(eFull), digestNoTS(ePos); dF != dP {
			t.Fatalf("seed %d: full-replay and positional ckpt+tail recovery diverge:\n  full %s\n  pos %s",
				seed, dF, dP)
		}
	}
}

// TestRecoverPositionalCutoff pins why checkpoints carry a WAL-position
// vector and not just TS clocks: one packet's ops can reach the wire — and
// thus the WAL — at different times (cache flush vs coalesced flush), so
// the same clock can occur at several WAL positions. Searching for the
// clock's last occurrence then skips ops the snapshot never contained;
// the position vector resumes replay exactly.
func TestRecoverPositionalCutoff(t *testing.T) {
	k1 := Key{Vertex: 1, Obj: 1, Sub: 1}
	k2 := Key{Vertex: 1, Obj: 2, Sub: 1}
	wal := []WalOp{
		// Packet clock 7's first op, flushed early.
		{Clock: 7, Req: Request{Op: OpSet, Key: k1, Arg: IntVal(10), Clock: 7, Instance: 1}},
		{Clock: 8, Req: Request{Op: OpIncr, Key: k2, Arg: IntVal(1), Clock: 8, Instance: 1}},
		{Clock: 9, Req: Request{Op: OpIncr, Key: k2, Arg: IntVal(1), Clock: 9, Instance: 1}},
		// Packet clock 7's second op (coalesced), flushed after 8 and 9.
		{Clock: 7, Req: Request{Op: OpIncr, Key: k2, Arg: IntVal(1), Clock: 7, Instance: 1}},
	}

	victim := NewEngine(4)
	victim.Apply(&wal[0].Req)
	snap := victim.Snapshot() // TS = {1:7}, contains only wal[0]
	for i := 1; i < len(wal); i++ {
		victim.Apply(&wal[i].Req)
	}
	want := digestNoTS(victim)

	// Clock-marker cutoff: the last occurrence of clock 7 is wal[3], so
	// replay resumes after it and the three increments are lost.
	eClock, _ := RecoverEngine(RecoverInput{Checkpoint: snap,
		Clients: []ClientState{{Instance: 1, WAL: wal}}})
	if v, ok := eClock.Get(k2); ok && v.Int == 3 {
		t.Fatalf("clock cutoff unexpectedly exact — ambiguity fixture is broken")
	}

	// Positional cutoff: the snapshot covers exactly 1 WAL entry.
	snapP := *snap
	snapP.Pos = map[uint16]uint64{1: 1}
	ePos, _ := RecoverEngine(RecoverInput{Checkpoint: &snapP,
		Clients: []ClientState{{Instance: 1, WAL: wal}}})
	if got := digestNoTS(ePos); got != want {
		t.Fatalf("positional recovery diverges:\n  want %s\n  got  %s", want, got)
	}
}
