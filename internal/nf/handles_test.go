package nf

import (
	"testing"

	"chc/internal/store"
)

// handleRig runs handle calls against a LocalState backend (the embedded
// engine executes the same op set as the external store).
type handleRig struct {
	ctx    *Ctx
	local  *LocalState
	alerts []Alert
	clock  uint64
}

func newHandleRig() *handleRig {
	r := &handleRig{local: NewLocalState(1, 1)}
	r.ctx = NewCtx(nil, r.local, func(a Alert) { r.alerts = append(r.alerts, a) })
	r.tick()
	return r
}

func (r *handleRig) tick() {
	r.clock++
	r.ctx.ResetPacket(r.clock, r.clock)
}

func TestDeclSetRegistersInOrder(t *testing.T) {
	var s DeclSet
	s.Counter(1, "a", store.ScopeGlobal, store.WriteMostly)
	s.Gauge(2, "b", store.ScopeFlow, store.ReadHeavy)
	s.Map(3, "c", store.ScopeSrcIP, store.WriteReadOften)
	s.Pool(4, "d", store.ScopeGlobal, store.WriteReadOften)
	got := s.List()
	if len(got) != 4 {
		t.Fatalf("decls = %d, want 4", len(got))
	}
	for i, want := range []uint16{1, 2, 3, 4} {
		if got[i].ID != want {
			t.Fatalf("decl[%d].ID = %d, want %d (registration order)", i, got[i].ID, want)
		}
	}
	if got[2].Scope != store.ScopeSrcIP || got[2].Pattern != store.WriteReadOften {
		t.Fatalf("decl[2] = %+v, lost scope/pattern", got[2])
	}
}

func TestDeclSetRejectsDuplicateIDs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate object ID did not panic")
		}
	}()
	var s DeclSet
	s.Counter(1, "a", store.ScopeGlobal, store.WriteMostly)
	s.Gauge(1, "b", store.ScopeFlow, store.ReadHeavy)
}

func TestHandleCarriesDecl(t *testing.T) {
	var s DeclSet
	c := s.Counter(7, "ctr", store.ScopeSrcIP, store.WriteMostly)
	d := c.Decl()
	if c.ID() != 7 || d.Name != "ctr" || d.Scope != store.ScopeSrcIP || d.Pattern != store.WriteMostly {
		t.Fatalf("handle decl = %+v", d)
	}
}

func TestCounterHandle(t *testing.T) {
	r := newHandleRig()
	var s DeclSet
	c := s.Counter(1, "ctr", store.ScopeGlobal, store.WriteMostly)

	c.Incr(r.ctx, 5)
	c.Incr(r.ctx, 2)
	if v, ok := c.Value(r.ctx); !ok || v != 7 {
		t.Fatalf("Value = %d,%v want 7", v, ok)
	}
	if nv, ok := c.IncrGet(r.ctx, 3); !ok || nv != 10 {
		t.Fatalf("IncrGet = %d,%v want 10", nv, ok)
	}
	// Keyed variant is a distinct key.
	c.IncrAt(r.ctx, 99, 4)
	if v, ok := c.ValueAt(r.ctx, 99); !ok || v != 4 {
		t.Fatalf("ValueAt(99) = %d,%v want 4", v, ok)
	}
	if v, _ := c.Value(r.ctx); v != 10 {
		t.Fatalf("sub 0 perturbed by keyed incr: %d", v)
	}
	// Mutations were tracked for the XOR vector.
	if len(r.ctx.Updated) != 1 || r.ctx.Updated[0] != 1 {
		t.Fatalf("Updated = %v, want [1]", r.ctx.Updated)
	}
}

func TestGaugeHandle(t *testing.T) {
	r := newHandleRig()
	var s DeclSet
	g := s.Gauge(2, "map", store.ScopeFlow, store.ReadHeavy)

	if _, ok := g.Get(r.ctx, 5); ok {
		t.Fatal("Get on absent entry returned ok")
	}
	g.Set(r.ctx, 5, 1234)
	if v, ok := g.Get(r.ctx, 5); !ok || v != 1234 {
		t.Fatalf("Get = %d,%v want 1234", v, ok)
	}
	if !g.CAS(r.ctx, 5, 1234, 99) {
		t.Fatal("CAS with matching old failed")
	}
	if g.CAS(r.ctx, 5, 1234, 50) {
		t.Fatal("CAS with stale old applied")
	}
	g.Delete(r.ctx, 5)
	if _, ok := g.Get(r.ctx, 5); ok {
		t.Fatal("entry survived Delete")
	}
}

func TestMapHandle(t *testing.T) {
	r := newHandleRig()
	var s DeclSet
	m := s.Map(3, "tbl", store.ScopeSrcIP, store.WriteReadOften)

	m.Set(r.ctx, 1, "ssh", 10)
	if !m.SetSync(r.ctx, 1, "ftp", 20) {
		t.Fatal("SetSync failed")
	}
	m.Incr(r.ctx, 1, "ftp", 5)
	if v, ok := m.Field(r.ctx, 1, "ftp"); !ok || v != 25 {
		t.Fatalf("Field(ftp) = %d,%v want 25", v, ok)
	}
	snap, ok := m.Snapshot(r.ctx, 1)
	if !ok || len(snap) != 2 || snap["ssh"] != 10 {
		t.Fatalf("Snapshot = %v,%v", snap, ok)
	}
	// MinIncr picks the least-loaded field (ssh at 10 vs ftp at 25).
	field, ok := m.MinIncr(r.ctx, 1, 1)
	if !ok || field != "ssh" {
		t.Fatalf("MinIncr = %q,%v want ssh", field, ok)
	}
	if v, _ := m.Field(r.ctx, 1, "ssh"); v != 11 {
		t.Fatalf("ssh after MinIncr = %d, want 11", v)
	}
}

func TestPoolHandle(t *testing.T) {
	r := newHandleRig()
	var s DeclSet
	p := s.Pool(4, "ports", store.ScopeGlobal, store.WriteReadOften)

	seed := func(req store.Request) { r.local.UpdateBlocking(r.ctx, req) }
	p.SeedPush(seed, 100)
	p.SeedPush(seed, 101)
	if n, ok := p.Len(r.ctx); !ok || n != 2 {
		t.Fatalf("Len = %d,%v want 2", n, ok)
	}
	if v, ok := p.Pop(r.ctx); !ok || v != 100 {
		t.Fatalf("Pop = %d,%v want 100 (FIFO)", v, ok)
	}
	p.Push(r.ctx, 100)
	if v, _ := p.Pop(r.ctx); v != 101 {
		t.Fatalf("Pop = %d, want 101", v)
	}
	if v, _ := p.Pop(r.ctx); v != 100 {
		t.Fatalf("Pop = %d, want recycled 100", v)
	}
	if _, ok := p.Pop(r.ctx); ok {
		t.Fatal("Pop from empty pool returned ok (must report exhaustion)")
	}
	// A failed pop must NOT enter the XOR vector (it commits nothing).
	for _, o := range r.ctx.Updated {
		_ = o
	}
}

func TestNonDetHandle(t *testing.T) {
	r := newHandleRig()
	var s DeclSet
	nd := s.NonDet(5, "rng")

	v1, ok1 := nd.Rand(r.ctx, 0)
	v2, ok2 := nd.Rand(r.ctx, 0)
	if !ok1 || !ok2 {
		t.Fatal("Rand failed")
	}
	if v1 == v2 {
		t.Fatalf("successive local draws identical (%d); suspicious", v1)
	}
	if _, ok := nd.Now(r.ctx, 0); !ok {
		t.Fatal("Now failed")
	}
}

// TestFailedPopEntersXORVector: a pop from an empty pool fails but does not
// conflict, so the NF signs it into the packet's XOR vector and the store
// commits it. Signing and committing follow one rule, so the root's delete
// check balances and the packet is deleted.
func TestFailedPopEntersXORVector(t *testing.T) {
	r := newHandleRig()
	var s DeclSet
	p := s.Pool(4, "ports", store.ScopeGlobal, store.WriteReadOften)
	if _, ok := p.Pop(r.ctx); ok {
		t.Fatal("pop on empty pool succeeded")
	}
	if len(r.ctx.Updated) != 1 || r.ctx.Updated[0] != 4 {
		t.Fatalf("Updated = %v, want the failed pop's object 4 signed", r.ctx.Updated)
	}

	e := store.NewEngine(1)
	var commits []uint64
	e.SetHooks(store.Hooks{OnCommit: func(clock uint64, _ uint16, _ store.Key) {
		commits = append(commits, clock)
	}})
	rep := e.Apply(&store.Request{Op: store.OpPopList, Key: store.Key{Vertex: 1, Obj: 4}, Clock: 9, Instance: 1})
	if rep.OK || len(commits) != 1 || commits[0] != 9 {
		t.Fatalf("failed pop: reply %+v, commits %v; want a failed reply that commits clock 9", rep, commits)
	}
}

func TestNoteUpdateDedupsAndFallsBack(t *testing.T) {
	r := newHandleRig()
	// Small IDs: bitmap path.
	for i := 0; i < 3; i++ {
		r.ctx.noteUpdate(3)
		r.ctx.noteUpdate(7)
	}
	// Large IDs: linear fallback beyond the bitmap range.
	big := uint16(updBitsWords*64 + 5)
	r.ctx.noteUpdate(big)
	r.ctx.noteUpdate(big)
	want := []uint16{3, 7, big}
	if len(r.ctx.Updated) != len(want) {
		t.Fatalf("Updated = %v, want %v", r.ctx.Updated, want)
	}
	for i := range want {
		if r.ctx.Updated[i] != want[i] {
			t.Fatalf("Updated = %v, want %v", r.ctx.Updated, want)
		}
	}
	// ResetPacket clears both representations.
	r.tick()
	r.ctx.noteUpdate(3)
	if len(r.ctx.Updated) != 1 {
		t.Fatalf("bitmap survived ResetPacket: %v", r.ctx.Updated)
	}
}
