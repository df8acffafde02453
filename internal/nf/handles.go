// Typed state-object handles: the declarative NF-facing state API.
//
// The paper's programming model has NFs *declare* their state objects
// (scope + access pattern, Table 1/Table 4) and lets the framework pick the
// management strategy. The handle layer realizes that surface: an NF
// registers each object once at construction time through a DeclSet and
// receives a typed handle (Counter, Gauge, Map, Pool, NonDet) bound to the
// object's ObjDecl. Per-packet code then calls semantic methods —
// total.Incr(ctx, 1), ports.Pop(ctx), portmap.Set(ctx, conn, v) — instead
// of assembling store.Request literals.
//
// Handles route every call through the Ctx, so the pluggable State
// backends (traditional, CHC client, naive locking), XOR update-vector
// tracking, and clock stamping all behave exactly as with raw requests.
package nf

import (
	"fmt"

	"chc/internal/store"
)

// Seeder applies one raw state operation during deployment-time seeding
// (runtime.Vertex.Seed). Handle seed helpers build the requests, so NF
// packages never construct store.Request values themselves.
type Seeder func(store.Request)

// DeclSet accumulates the state objects an NF declares at construction
// time. Each constructor registers the ObjDecl and returns a typed handle
// bound to it; the NF's Decls() method hands List() to the framework,
// which derives the Table 1 strategy from scope + access pattern.
type DeclSet struct {
	decls []store.ObjDecl
}

// List returns the declared objects in registration order.
func (s *DeclSet) List() []store.ObjDecl {
	return append([]store.ObjDecl(nil), s.decls...)
}

func (s *DeclSet) register(d store.ObjDecl) store.ObjDecl {
	for _, e := range s.decls {
		if e.ID == d.ID {
			panic(fmt.Sprintf("nf: duplicate state object id %d (%q vs %q)", d.ID, e.Name, d.Name))
		}
	}
	s.decls = append(s.decls, d)
	return d
}

// Handle is the common part of every typed state handle: the declaration
// the NF registered. Carrying the full ObjDecl (not just the ID) lets the
// binding layer and tools reason about scope and access pattern without a
// side lookup.
type Handle struct {
	decl store.ObjDecl
}

// Decl returns the object declaration this handle is bound to.
func (h Handle) Decl() store.ObjDecl { return h.decl }

// ID returns the declared object ID.
func (h Handle) ID() uint16 { return h.decl.ID }

// --- Counter -----------------------------------------------------------------

// Counter is an integer counter, optionally keyed by a sub-key (host hash,
// server index...). Increments are commutative and hence offloadable
// (Table 2); the non-blocking forms ride the client's coalescing path.
type Counter struct{ Handle }

// Counter declares an integer counter object.
func (s *DeclSet) Counter(id uint16, name string, scope store.Scope, pattern store.AccessPattern) Counter {
	return Counter{Handle{s.register(store.ObjDecl{ID: id, Name: name, Scope: scope, Pattern: pattern})}}
}

// Incr adds delta to the singleton counter without waiting for the result.
func (c Counter) Incr(ctx *Ctx, delta int64) { c.IncrAt(ctx, 0, delta) }

// IncrAt adds delta to the counter at sub without waiting for the result.
func (c Counter) IncrAt(ctx *Ctx, sub uint64, delta int64) {
	ctx.Update(store.Request{Op: store.OpIncr, Key: store.Key{Obj: c.decl.ID, Sub: sub}, Arg: store.IntVal(delta)})
}

// IncrGet adds delta to the singleton counter and returns the new value.
func (c Counter) IncrGet(ctx *Ctx, delta int64) (int64, bool) { return c.IncrGetAt(ctx, 0, delta) }

// IncrGetAt adds delta to the counter at sub and returns the new value
// (blocking: the result comes back with the offloaded op).
func (c Counter) IncrGetAt(ctx *Ctx, sub uint64, delta int64) (int64, bool) {
	rep, ok := ctx.UpdateBlocking(store.Request{Op: store.OpIncr, Key: store.Key{Obj: c.decl.ID, Sub: sub}, Arg: store.IntVal(delta)})
	if !ok || !rep.OK {
		return 0, false
	}
	return rep.Val.Int, true
}

// Value reads the singleton counter.
func (c Counter) Value(ctx *Ctx) (int64, bool) { return c.ValueAt(ctx, 0) }

// ValueAt reads the counter at sub.
func (c Counter) ValueAt(ctx *Ctx, sub uint64) (int64, bool) {
	v, ok := ctx.Get(c.decl.ID, sub)
	return v.Int, ok
}

// --- Gauge -------------------------------------------------------------------

// Gauge is a per-key scalar (typically per-flow: a NAT port mapping, a
// chosen backend, a pending connection attempt): set once, read often,
// deleted when the flow ends.
type Gauge struct{ Handle }

// Gauge declares a scalar-per-sub object.
func (s *DeclSet) Gauge(id uint16, name string, scope store.Scope, pattern store.AccessPattern) Gauge {
	return Gauge{Handle{s.register(store.ObjDecl{ID: id, Name: name, Scope: scope, Pattern: pattern})}}
}

// Set writes the value at sub without waiting for the result.
func (g Gauge) Set(ctx *Ctx, sub uint64, v int64) {
	ctx.Update(store.Request{Op: store.OpSet, Key: store.Key{Obj: g.decl.ID, Sub: sub}, Arg: store.IntVal(v)})
}

// Get reads the value at sub; ok is false when the entry does not exist.
func (g Gauge) Get(ctx *Ctx, sub uint64) (int64, bool) {
	v, ok := ctx.Get(g.decl.ID, sub)
	return v.Int, ok
}

// Delete removes the entry at sub without waiting for the result.
func (g Gauge) Delete(ctx *Ctx, sub uint64) {
	ctx.Update(store.Request{Op: store.OpDelete, Key: store.Key{Obj: g.decl.ID, Sub: sub}})
}

// CAS atomically replaces old with new at sub, reporting whether it applied.
func (g Gauge) CAS(ctx *Ctx, sub uint64, old, new int64) bool {
	rep, ok := ctx.UpdateBlocking(store.Request{Op: store.OpCAS, Key: store.Key{Obj: g.decl.ID, Sub: sub},
		Arg: store.IntVal(old), Arg2: store.IntVal(new)})
	return ok && rep.OK
}

// --- Map ---------------------------------------------------------------------

// Map is a string-field -> int64 table at each sub-key (the LB's per-server
// load table, the Trojan detector's per-host app-arrival table). Field
// updates are offloaded ops; MinIncr is the store-side least-loaded pick.
type Map struct{ Handle }

// Map declares a field-table object.
func (s *DeclSet) Map(id uint16, name string, scope store.Scope, pattern store.AccessPattern) Map {
	return Map{Handle{s.register(store.ObjDecl{ID: id, Name: name, Scope: scope, Pattern: pattern})}}
}

// Set writes field at sub without waiting for the result.
func (m Map) Set(ctx *Ctx, sub uint64, field string, v int64) {
	ctx.Update(store.Request{Op: store.OpMapSet, Key: store.Key{Obj: m.decl.ID, Sub: sub},
		Field: field, Arg: store.IntVal(v)})
}

// SetSync writes field at sub and waits for the op to execute (ordering
// point: a following read observes the write).
func (m Map) SetSync(ctx *Ctx, sub uint64, field string, v int64) bool {
	rep, ok := ctx.UpdateBlocking(store.Request{Op: store.OpMapSet, Key: store.Key{Obj: m.decl.ID, Sub: sub},
		Field: field, Arg: store.IntVal(v)})
	return ok && rep.OK
}

// Incr adds delta to field at sub without waiting for the result.
func (m Map) Incr(ctx *Ctx, sub uint64, field string, delta int64) {
	ctx.Update(store.Request{Op: store.OpMapIncr, Key: store.Key{Obj: m.decl.ID, Sub: sub},
		Field: field, Arg: store.IntVal(delta)})
}

// MinIncr offloads the pick-minimum-and-increment operation (least-loaded
// backend selection) and returns the chosen field name.
func (m Map) MinIncr(ctx *Ctx, sub uint64, delta int64) (string, bool) {
	rep, ok := ctx.UpdateBlocking(store.Request{Op: store.OpMapMinIncr, Key: store.Key{Obj: m.decl.ID, Sub: sub},
		Arg: store.IntVal(delta)})
	if !ok || !rep.OK {
		return "", false
	}
	return string(rep.Val.Bytes), true
}

// Field reads one field at sub.
func (m Map) Field(ctx *Ctx, sub uint64, field string) (int64, bool) {
	v, ok := ctx.Get(m.decl.ID, sub)
	if !ok || v.Map == nil {
		return 0, false
	}
	x, ok := v.Map[field]
	return x, ok
}

// Snapshot reads the full table at sub. The returned map aliases the
// backend's reply value; treat it as read-only.
func (m Map) Snapshot(ctx *Ctx, sub uint64) (map[string]int64, bool) {
	v, ok := ctx.Get(m.decl.ID, sub)
	if !ok {
		return nil, false
	}
	return v.Map, true
}

// SeedSet writes field through the deployment seeding path.
func (m Map) SeedSet(seed Seeder, field string, v int64) {
	seed(store.Request{Op: store.OpMapSet, Key: store.Key{Obj: m.decl.ID}, Field: field, Arg: store.IntVal(v)})
}

// --- Pool --------------------------------------------------------------------

// Pool is a shared list of integer resources (the NAT's available-port
// pool): the store pops and pushes on the NF's behalf, so concurrent
// instances never double-allocate.
type Pool struct{ Handle }

// Pool declares a shared list object.
func (s *DeclSet) Pool(id uint16, name string, scope store.Scope, pattern store.AccessPattern) Pool {
	return Pool{Handle{s.register(store.ObjDecl{ID: id, Name: name, Scope: scope, Pattern: pattern})}}
}

// Push returns v to the pool without waiting for the result.
func (p Pool) Push(ctx *Ctx, v int64) {
	ctx.Update(store.Request{Op: store.OpPushList, Key: store.Key{Obj: p.decl.ID}, Arg: store.IntVal(v)})
}

// Pop removes and returns the next available value (blocking: the store
// executes the pop on the NF's behalf). ok is false when the pool is empty.
func (p Pool) Pop(ctx *Ctx) (int64, bool) {
	rep, ok := ctx.UpdateBlocking(store.Request{Op: store.OpPopList, Key: store.Key{Obj: p.decl.ID}})
	if !ok || !rep.OK {
		return 0, false
	}
	return rep.Val.Int, true
}

// Len reads the pool's current size.
func (p Pool) Len(ctx *Ctx) (int, bool) {
	v, ok := ctx.Get(p.decl.ID, 0)
	if !ok {
		return 0, false
	}
	return len(v.List), true
}

// SeedPush adds v through the deployment seeding path.
func (p Pool) SeedPush(seed Seeder, v int64) {
	seed(store.Request{Op: store.OpPushList, Key: store.Key{Obj: p.decl.ID}, Arg: store.IntVal(v)})
}

// --- NonDet ------------------------------------------------------------------

// NonDet is a replay-stable non-deterministic value source (Appendix A):
// the store computes the value once per packet clock and memoizes it, so
// replay after a failure observes the original draw.
type NonDet struct{ Handle }

// NonDet declares a non-deterministic value object.
func (s *DeclSet) NonDet(id uint16, name string) NonDet {
	return NonDet{Handle{s.register(store.ObjDecl{ID: id, Name: name, Scope: store.ScopeGlobal, Pattern: store.WriteMostly})}}
}

// Rand draws a replay-stable pseudo-random int64 for this packet.
func (n NonDet) Rand(ctx *Ctx, sub uint64) (int64, bool) {
	return ctx.NonDet(n.decl.ID, sub, store.NDRandom)
}

// Now reads a replay-stable timestamp (virtual nanoseconds) for this packet.
func (n NonDet) Now(ctx *Ctx, sub uint64) (int64, bool) {
	return ctx.NonDet(n.decl.ID, sub, store.NDTime)
}
