package nf

import (
	"sort"

	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// Alert is a detection/action event surfaced by an NF (portscan verdicts,
// Trojan detections, NAT port exhaustion...). The experiment harness counts
// these to measure false positives/negatives.
type Alert struct {
	NF    string
	Kind  string
	Host  uint32
	Clock uint64
}

// updBitsWords sizes the per-packet updated-object bitmap: object IDs below
// updBitsWords*64 dedup in O(1) on the hot path; larger IDs (unused by the
// paper's NFs, whose IDs are single digits) fall back to a linear scan.
const updBitsWords = 4

// Ctx carries per-packet processing context into NF code: the executing
// process (for blocking state access; a DES process or a live goroutine
// behind transport.Proc), the packet's logical clock, the arrival sequence
// number at this instance (what a framework WITHOUT chain-wide clocks
// would have to use for ordering), and the state backend.
type Ctx struct {
	Proc  transport.Proc
	Clock uint64
	Seq   uint64
	State State
	// Updated accumulates the state objects this packet's processing
	// mutated; the framework XORs (instanceID‖objID) per entry into the
	// packet's bit vector (Fig 6 step 1). Reset per packet.
	Updated []uint16
	// updBits dedups noteUpdate for object IDs < updBitsWords*64 without
	// scanning Updated per mutation.
	updBits [updBitsWords]uint64
	alert   func(Alert)
	// Arena supplies Clone's buffers: the chain's packet arena inside an
	// instance, nil (heap copies) elsewhere.
	Arena *packet.Arena
	// out backs Emit's result.
	out []*packet.Packet
}

// Emit returns pkts as the packet's outputs, the value Process returns.
// The slice is a buffer the Ctx owns: valid until the next Emit.
func (c *Ctx) Emit(pkts ...*packet.Packet) []*packet.Packet {
	c.out = append(c.out[:0], pkts...)
	return c.out
}

// Clone returns a copy of pkt for the NF to rewrite and emit in its place,
// drawn from c.Arena. The input stays untouched: the framework releases it
// when the NF does not emit it.
func (c *Ctx) Clone(pkt *packet.Packet) *packet.Packet { return c.Arena.Clone(pkt) }

// ResetPacket prepares the context for the next packet.
func (c *Ctx) ResetPacket(clock, seq uint64) {
	c.Clock, c.Seq = clock, seq
	c.Updated = c.Updated[:0]
	c.updBits = [updBitsWords]uint64{}
}

func (c *Ctx) noteUpdate(obj uint16) {
	if obj < updBitsWords*64 {
		w, bit := obj>>6, uint64(1)<<(obj&63)
		if c.updBits[w]&bit != 0 {
			return
		}
		c.updBits[w] |= bit
		c.Updated = append(c.Updated, obj)
		return
	}
	for _, o := range c.Updated {
		if o == obj {
			return
		}
	}
	c.Updated = append(c.Updated, obj)
}

// NewCtx builds a context; alert may be nil.
func NewCtx(p transport.Proc, state State, alert func(Alert)) *Ctx {
	return &Ctx{Proc: p, State: state, alert: alert}
}

// Alert records a detection event.
func (c *Ctx) Alert(a Alert) {
	a.Clock = c.Clock
	if c.alert != nil {
		c.alert(a)
	}
}

// Get reads state object (obj, sub).
func (c *Ctx) Get(obj uint16, sub uint64) (store.Value, bool) {
	return c.State.Get(c, obj, sub)
}

// Update issues a mutation whose result the NF does not need.
func (c *Ctx) Update(req store.Request) {
	req.Clock = c.Clock
	if req.Op.Mutates() {
		c.noteUpdate(req.Key.Obj)
	}
	c.State.Update(c, req)
}

// UpdateBlocking issues a mutation and returns its result. Every mutation
// the store did not reject for an ownership conflict enters the packet's
// XOR vector, including a failed one (e.g. a pop from an exhausted pool):
// the store commits exactly those, so the root's delete check balances.
func (c *Ctx) UpdateBlocking(req store.Request) (store.Reply, bool) {
	req.Clock = c.Clock
	rep, ok := c.State.UpdateBlocking(c, req)
	if ok && !rep.Conflict && req.Op.Mutates() {
		c.noteUpdate(req.Key.Obj)
	}
	return rep, ok
}

// NonDet obtains a replay-stable non-deterministic value (Appendix A).
func (c *Ctx) NonDet(obj uint16, sub uint64, kind store.NonDetKind) (int64, bool) {
	return c.State.NonDet(c, obj, sub, kind)
}

// NF is a network function: state declarations plus per-packet processing.
// Process returns the packets to forward downstream, conventionally as
// ctx.Emit(...) (none = drop or consume; off-path NFs emit nothing).
type NF interface {
	Name() string
	Decls() []store.ObjDecl
	Process(ctx *Ctx, pkt *packet.Packet) []*packet.Packet
}

// CustomOpProvider is implemented by NFs that load custom operations into
// the datastore (§4.3).
type CustomOpProvider interface {
	CustomOps() map[string]store.CustomOp
}

// ScopesOf returns the NF's state scopes ordered from most to least
// fine-grained — the paper's .scope() used by scope-aware partitioning
// (§4.1).
func ScopesOf(n NF) []store.Scope {
	seen := make(map[store.Scope]bool)
	var out []store.Scope
	for _, d := range n.Decls() {
		if !seen[d.Scope] {
			seen[d.Scope] = true
			out = append(out, d.Scope)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State is the per-packet state access surface. Backends route each call
// according to the state-management model under evaluation.
type State interface {
	Get(ctx *Ctx, obj uint16, sub uint64) (store.Value, bool)
	Update(ctx *Ctx, req store.Request)
	UpdateBlocking(ctx *Ctx, req store.Request) (store.Reply, bool)
	NonDet(ctx *Ctx, obj uint16, sub uint64, kind store.NonDetKind) (int64, bool)
}

// --- Traditional backend -----------------------------------------------------

// LocalState keeps all state inside the NF instance (the "traditional NF"
// baseline, T in Figures 8/10): an embedded engine, no network, no
// externalization, no fault tolerance.
type LocalState struct {
	vertex uint16
	eng    *store.Engine
}

// NewLocalState creates a traditional-NF backend.
func NewLocalState(vertex uint16, seed int64) *LocalState {
	e := store.NewEngine(4)
	e.SetSeed(seed)
	return &LocalState{vertex: vertex, eng: e}
}

// Engine exposes the embedded engine (tests; traditional NFs lose this
// state on crash, which is the point of R1).
func (l *LocalState) Engine() *store.Engine { return l.eng }

// Get implements State.
func (l *LocalState) Get(ctx *Ctx, obj uint16, sub uint64) (store.Value, bool) {
	rep := l.eng.Apply(&store.Request{Op: store.OpGet, Key: store.Key{Vertex: l.vertex, Obj: obj, Sub: sub}})
	return rep.Val, rep.OK
}

// Update implements State.
func (l *LocalState) Update(ctx *Ctx, req store.Request) {
	req.Key.Vertex = l.vertex
	req.Clock = 0 // local state has no replay machinery
	l.eng.Apply(&req)
}

// UpdateBlocking implements State.
func (l *LocalState) UpdateBlocking(ctx *Ctx, req store.Request) (store.Reply, bool) {
	req.Key.Vertex = l.vertex
	req.Clock = 0
	return l.eng.Apply(&req), true
}

// NonDet implements State: locally computed, NOT replay-stable — exactly the
// failure mode Appendix A warns about; kept for the traditional baseline.
func (l *LocalState) NonDet(ctx *Ctx, obj uint16, sub uint64, kind store.NonDetKind) (int64, bool) {
	rep := l.eng.Apply(&store.Request{Op: store.OpNonDet, Key: store.Key{Vertex: l.vertex, Obj: obj, Sub: sub}, NDKind: kind})
	return rep.Val.Int, rep.OK
}

// RegisterCustom loads a custom op into the local engine.
func (l *LocalState) RegisterCustom(name string, fn store.CustomOp) {
	l.eng.RegisterCustom(name, fn)
}

// --- CHC backend -------------------------------------------------------------

// ClientState adapts the CHC client library to the State interface
// (models EO / EO+C / EO+C+NA depending on the client's Mode).
type ClientState struct {
	C *store.Client
}

// Get implements State.
func (s *ClientState) Get(ctx *Ctx, obj uint16, sub uint64) (store.Value, bool) {
	return s.C.Get(ctx.Proc, obj, sub, ctx.Clock)
}

// Update implements State.
func (s *ClientState) Update(ctx *Ctx, req store.Request) {
	req.Key.Vertex = s.C.Config().Vertex
	s.C.Update(ctx.Proc, req)
}

// UpdateBlocking implements State.
func (s *ClientState) UpdateBlocking(ctx *Ctx, req store.Request) (store.Reply, bool) {
	req.Key.Vertex = s.C.Config().Vertex
	return s.C.UpdateBlocking(ctx.Proc, req)
}

// NonDet implements State: store-computed, memoized by packet clock.
func (s *ClientState) NonDet(ctx *Ctx, obj uint16, sub uint64, kind store.NonDetKind) (int64, bool) {
	return s.C.NonDet(ctx.Proc, obj, sub, kind, ctx.Clock)
}

// --- Naive locking backend ---------------------------------------------------

// LockingState is the §7.1 baseline CHC's operation offloading is compared
// against: every mutation acquires a lock with the read (1 RTT + wait),
// applies the op locally, and writes back releasing the lock (1 RTT).
type LockingState struct {
	C *store.Client
}

// Get implements State (plain blocking read; reads don't lock).
func (s *LockingState) Get(ctx *Ctx, obj uint16, sub uint64) (store.Value, bool) {
	return s.C.Get(ctx.Proc, obj, sub, ctx.Clock)
}

// Update implements State via lock-read-modify-write-unlock.
func (s *LockingState) Update(ctx *Ctx, req store.Request) {
	s.UpdateBlocking(ctx, req)
}

// UpdateBlocking implements State.
func (s *LockingState) UpdateBlocking(ctx *Ctx, req store.Request) (store.Reply, bool) {
	req.Key.Vertex = s.C.Config().Vertex
	v, ok := s.C.LockGet(ctx.Proc, req.Key)
	if !ok {
		return store.Reply{}, false
	}
	rep := store.ApplyToValue(&v, &req)
	if !s.C.SetUnlock(ctx.Proc, req.Key, v, ctx.Clock) {
		return store.Reply{}, false
	}
	return rep, true
}

// NonDet implements State.
func (s *LockingState) NonDet(ctx *Ctx, obj uint16, sub uint64, kind store.NonDetKind) (int64, bool) {
	return s.C.NonDet(ctx.Proc, obj, sub, kind, ctx.Clock)
}
