package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"chc/internal/clockset"
)

// Op is an operation type the store executes on behalf of NF instances
// (Table 2 plus the metadata and non-deterministic-value operations of
// §5.4 / Appendix A).
type Op uint8

// Operations.
const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpIncr       // increment/decrement by Arg.Int; returns new value
	OpPushList   // push Arg.Int; returns new length
	OpPopList    // pop front; returns popped value, OK=false when empty
	OpCAS        // compare (Arg) and update (Arg2); returns final value, OK=applied
	OpMapSet     // Map[Field] = Arg.Int
	OpMapGet     // returns Map[Field]
	OpMapIncr    // Map[Field] += Arg.Int; returns new value
	OpMapMinIncr // pick min-valued map key, increment it, return its name
	OpCustom     // registered custom operation named by Custom
	OpNonDet     // store-computed non-deterministic value (Appendix A)
	OpAssociate  // ownership metadata: bind key to Instance
	OpDisassoc   // ownership metadata: release key from Instance
)

func (o Op) String() string {
	names := [...]string{"get", "set", "delete", "incr", "pushlist", "poplist",
		"cas", "mapset", "mapget", "mapincr", "mapminincr", "custom", "nondet",
		"associate", "disassoc"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Mutates reports whether the op changes state (and therefore participates
// in duplicate suppression and commit signaling).
func (o Op) Mutates() bool {
	switch o {
	case OpGet, OpMapGet, OpAssociate, OpDisassoc:
		return false
	}
	return true
}

// NonDetKind selects what OpNonDet computes.
type NonDetKind uint8

// Non-deterministic value kinds.
const (
	NDRandom NonDetKind = iota // a pseudo-random int64
	NDTime                     // current time (virtual nanoseconds)
)

// BatchEntry is one non-blocking increment absorbed into a coalesced
// request by the client library: the absorbed op's inducing packet clock
// and its delta. The engine applies the merged sum once but runs duplicate
// suppression, result logging and commit signaling per entry, so the root's
// Fig 6 XOR/delete check and replay stay exact.
type BatchEntry struct {
	Clock uint64
	Delta int64
}

// Request is one operation against the store.
type Request struct {
	Op       Op
	Key      Key
	Field    string // for map ops
	Arg      Value
	Arg2     Value      // second operand (CAS new value)
	Custom   string     // custom op name for OpCustom
	NDKind   NonDetKind // for OpNonDet
	Clock    uint64     // logical clock of the inducing packet; 0 = none
	Instance uint16     // issuing NF instance
	WantTS   bool       // include the TS vector in the reply (reads, Fig 7)
	NonBlock bool       // non-blocking semantics (§4.3)

	// WalPos is the issuing client's WAL position for the target shard
	// after logging this request (count of that shard's WAL entries ever
	// logged, including this op's). Clocks alone cannot mark a WAL
	// position: one packet's ops reach the wire at different times (cache
	// flush vs coalesced flush), so the same clock can occur at several
	// WAL positions. The store keeps the max per instance and stamps it
	// into checkpoints as the exact replay-resume/truncation point.
	WalPos uint64

	// Batch holds increments coalesced onto this request after the head op
	// (client-side op batching, OpIncr/OpMapIncr only), in issue order.
	Batch []BatchEntry

	// Server-side registrations piggybacked on operations (DES protocol).
	RegisterCB bool // register for update callbacks on Key (read-heavy cache)
	WatchOwner bool // notify when Key's ownership changes (handover, Fig 4)
}

// wireSize approximates the encoded request size for simnet accounting.
func (r *Request) wireSize() int {
	return 24 + r.Arg.wireSize() + 16*len(r.Batch)
}

// Reply is the result of a Request.
type Reply struct {
	Val      Value
	OK       bool
	Emulated bool // duplicate-suppressed: Val replays the logged result (Fig 5b)
	Conflict bool // ownership conflict: key bound to another instance
	TS       map[uint16]uint64
}

// ApplyToValue defines what a value op does to a Value: set, incr, the list
// ops, CAS and the map ops. The engine applies them through it, and so do
// the client's cache and the locking baseline, so the three cannot drift
// apart. Get, Delete, Custom, NonDet, Associate and Disassoc need the entry
// or the engine, and Engine.Apply keeps its own cases for them; Delete here
// only clears v, for the client's cache. An absent key reads as the zero
// Value; whether it gets an entry is the engine's call (Engine.Apply).
func ApplyToValue(v *Value, req *Request) (rep Reply) {
	// The reply is built in place, field by field: a Reply literal per
	// case costs a zeroed temporary and a copy, a third of an engine
	// increment.
	switch req.Op {
	case OpSet:
		*v = req.Arg.Copy()
		rep.Val, rep.OK = v.Copy(), true
	case OpDelete:
		rep.OK = !v.IsNil()
		*v = Value{}
	case OpIncr:
		v.Kind = KindInt
		v.Int += req.Arg.Int
		rep.Val, rep.OK = IntVal(v.Int), true
	case OpPushList:
		v.Kind = KindList
		v.List = append(v.List, req.Arg.Int)
		rep.Val, rep.OK = IntVal(int64(len(v.List))), true
	case OpPopList:
		if len(v.List) > 0 {
			rep.Val, rep.OK = IntVal(v.List[0]), true
			v.List = v.List[1:]
		}
	case OpCAS:
		if rep.OK = v.Equal(req.Arg); rep.OK {
			*v = req.Arg2.Copy()
		}
		rep.Val = v.Copy()
	case OpMapSet:
		ensureMapValue(v)
		v.Map[req.Field] = req.Arg.Int
		rep.Val, rep.OK = IntVal(req.Arg.Int), true
	case OpMapIncr:
		ensureMapValue(v)
		v.Map[req.Field] += req.Arg.Int
		rep.Val, rep.OK = IntVal(v.Map[req.Field]), true
	case OpMapGet:
		if x, ok := v.Map[req.Field]; ok {
			rep.Val, rep.OK = IntVal(x), true
		}
	case OpMapMinIncr:
		if len(v.Map) == 0 {
			break
		}
		minKey := ""
		var minV int64
		first := true
		for k, x := range v.Map {
			if first || x < minV || (x == minV && k < minKey) {
				minKey, minV, first = k, x, false
			}
		}
		v.Map[minKey] += req.Arg.Int
		rep.Val, rep.OK = StringVal(minKey), true
	}
	return rep
}

func ensureMapValue(v *Value) {
	if v.Map == nil {
		v.Kind = KindMap
		v.Map = make(map[string]int64)
	}
}

// CustomOp is a developer-loaded operation (§4.3 "Developers can also load
// custom operations"). It mutates cur in place and returns the result value
// sent back to the caller.
type CustomOp func(cur *Value, arg Value) (result Value, ok bool)

// Hooks let the embedding server observe engine effects. All hooks are
// invoked synchronously from Apply; all but Listening with no shard lock
// held.
type Hooks struct {
	// OnCommit fires after a mutating op with a clock commits (Fig 6 step 2:
	// the store signals the root with the packet clock and instance‖object).
	// Every mutating op but a conflicted one commits, changed value or not,
	// once per (clock, key): a duplicate is emulated and does not commit.
	OnCommit func(clock uint64, instance uint16, key Key)
	// OnUpdate fires after any mutation with the new value (drives the
	// read-heavy cache callbacks of Table 1).
	OnUpdate func(key Key, val Value, by uint16)
	// Listening reports whether OnUpdate has anyone to tell about key. The
	// engine asks while it still holds the key's shard lock (so it must not
	// call back into the engine) and, on false, neither copies the post-op
	// value — the NAT's whole port list, the balancer's whole map — nor
	// fires OnUpdate. Nil means always listening.
	Listening func(key Key) bool
	// OnOwnerChange fires when ownership metadata changes (drives the Fig 4
	// step 6 handover notification).
	OnOwnerChange func(key Key, owner uint16)
}

// dupEntry is one logged update of a clock: the key and the result the op
// returned, failed or not.
type dupEntry struct {
	key Key
	val Value
	ok  bool
}

type entry struct {
	val   Value
	owner uint16 // 0 = shared / unowned
}

type shard struct {
	mu   sync.Mutex
	data map[Key]*entry
}

// Engine is one datastore instance: a sharded in-memory KV store executing
// offloaded operations. Each key maps to exactly one shard ("each state
// object is only handled by a single thread", §4.3); shards synchronize
// independently so the engine scales across real CPUs for the §7.1 datastore
// benchmark, while under the DES it is driven by a single server process.
type Engine struct {
	shards  []shard
	mask    uint64
	customs map[string]CustomOp
	hooks   Hooks

	// Duplicate-suppression log: clock -> (key, result value) of each update
	// that clock induced (§5.3). A packet updates a handful of keys, so the
	// per-clock list is searched linearly. Pruned when the root deletes the
	// packet.
	logMu  sync.Mutex
	updLog clockset.Table[[]dupEntry]
	// pruned tombstones completed clocks (see PruneClock).
	pruned clockset.Set

	// Non-deterministic value support.
	rng   *rand.Rand
	rngMu sync.Mutex
	nowFn func() int64

	// TS: per-instance clock of the last executed update (Fig 7).
	tsMu sync.Mutex
	ts   map[uint16]uint64

	// Emulated counts duplicate-suppressed (emulated) operations — the
	// would-be duplicate state updates of Table 5 — total and per vertex.
	Emulated         uint64
	emulMu           sync.Mutex
	EmulatedByVertex map[uint16]uint64
}

// NewEngine creates an engine with nshards shards (rounded up to a power of
// two).
func NewEngine(nshards int) *Engine {
	n := 1
	for n < nshards {
		n <<= 1
	}
	e := &Engine{
		shards:  make([]shard, n),
		mask:    uint64(n - 1),
		customs: make(map[string]CustomOp),
		ts:      make(map[uint16]uint64),
		rng:     rand.New(rand.NewSource(1)),
		nowFn:   func() int64 { return 0 },
	}
	for i := range e.shards {
		e.shards[i].data = make(map[Key]*entry)
	}
	return e
}

// SetHooks installs observer hooks (server wiring).
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// SetNowFn sets the time source for NDTime values (virtual time in DES).
func (e *Engine) SetNowFn(f func() int64) { e.nowFn = f }

// SetSeed reseeds the non-deterministic value generator.
func (e *Engine) SetSeed(seed int64) { e.rng = rand.New(rand.NewSource(seed)) }

// RegisterCustom installs a named custom operation.
func (e *Engine) RegisterCustom(name string, fn CustomOp) { e.customs[name] = fn }

func (e *Engine) shardFor(k Key) *shard {
	h := uint64(k.Vertex)<<48 ^ uint64(k.Obj)<<32 ^ k.Sub
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &e.shards[h&e.mask]
}

// lookupDup returns the logged result for (clock,key), if seen. A pruned
// clock reads as seen with a zero, successful result: pruning only happens
// once the packet fully committed and left the chain, so any op still
// arriving with that clock is a duplicate re-execution (e.g. a replayed
// copy that raced the first pass's completion) and must be absorbed, not
// re-applied. The first pass's output already reached the receiver, so the
// zero emulated value is never NF-visible.
func (e *Engine) lookupDup(clock uint64, k Key) (val Value, ok, seen bool) {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	if e.pruned.Has(clock) {
		return Value{}, true, true
	}
	if log := e.updLog.Get(clock); log != nil {
		if d := findDup(*log, k); d != nil {
			return d.val, d.ok, true
		}
	}
	return Value{}, false, false
}

func findDup(log []dupEntry, k Key) *dupEntry {
	for i := range log {
		if log[i].key == k {
			return &log[i]
		}
	}
	return nil
}

func (e *Engine) logDup(clock uint64, k Key, result Value, ok bool) {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	log := e.updLog.Put(clock)
	if d := findDup(*log, k); d != nil {
		d.val, d.ok = result.Copy(), ok
		return
	}
	if *log == nil {
		// A packet updates one to four keys per shard: one allocation
		// instead of growing 1 → 2 → 4.
		*log = make([]dupEntry, 0, 4)
	}
	*log = append(*log, dupEntry{k, result.Copy(), ok})
}

// PruneClock discards duplicate-suppression log entries for a packet whose
// processing completed (root "delete", §5), leaving a tombstone so a
// re-executed op for the finished packet can never double-apply. The
// tombstone set costs one bit per completed packet until a page of 32 Ki
// consecutive clocks has completed, and one directory entry from then on.
func (e *Engine) PruneClock(clock uint64) {
	e.logMu.Lock()
	e.updLog.Delete(clock)
	e.pruned.Add(clock)
	e.logMu.Unlock()
}

// PendingClocks reports how many clocks have logged updates (tests/metrics).
func (e *Engine) PendingClocks() int {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	return e.updLog.Len()
}

// DupLogPages reports what the duplicate-suppression state holds in memory:
// the pages of the update log, and the tombstone set's directory entries
// and real pages (tests/gauges).
func (e *Engine) DupLogPages() (logPages, prunedDir, prunedPages int) {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	return e.updLog.Pages(), e.pruned.DirLen(), e.pruned.Pages()
}

// countEmulated records n duplicate-suppressed ops of the vertex.
func (e *Engine) countEmulated(vertex uint16, n uint64) {
	e.emulMu.Lock()
	e.Emulated += n
	if e.EmulatedByVertex == nil {
		e.EmulatedByVertex = make(map[uint16]uint64)
	}
	e.EmulatedByVertex[vertex] += n
	e.emulMu.Unlock()
}

// Apply executes one request. It is safe for concurrent use.
//
// A request is its clocked entries: a coalesced increment (OpIncr or
// OpMapIncr with Batch entries) is its head {Clock, Arg.Int} followed by
// the Batch, in issue order; any other request is its one entry. Every
// request takes the same steps: per-entry duplicate suppression, the
// ownership check, one mutation, and after the shard lock is released one
// duplicate-log entry and one commit signal per fresh clocked entry,
// exactly as if each absorbed op had arrived on its own. That keeps replay
// from double-applying a partially replayed batch and keeps the root's
// Fig 6 XOR/delete check balanced for every inducing packet.
func (e *Engine) Apply(req *Request) Reply {
	n := 1
	if req.Op == OpIncr || req.Op == OpMapIncr {
		n += len(req.Batch)
	}
	sh := e.shardFor(req.Key)
	sh.mu.Lock()

	// Duplicate suppression: a mutating entry whose (clock,key) was already
	// applied is emulated — not re-applied or committed again (Fig 5b).
	// NonDet values are memoized the same way (Appendix A). The check
	// covers clocks repeated inside the request too: a replayed packet
	// re-executed at an instance can re-issue an op whose first-pass twin
	// is still unflushed in the same coalesce buffer, and applying both
	// would double the counter and fire a second commit, which XOR-cancels
	// the first at the root and wedges the packet.
	logged := req.Op.Mutates() || req.Op == OpNonDet
	var freshBuf [coalesceMax]uint64
	// Clocks of the fresh entries that get logged: a request a client
	// built (at most coalesceMax entries) keeps them on the stack.
	fresh := freshBuf[:0]
	var delta int64 // the fresh entries' summed increment
	var last uint64 // clock of the last fresh entry
	dups := 0
	var b BatchEntry
	for i := range n {
		b = BatchEntry{Clock: req.Clock, Delta: req.Arg.Int}
		if i > 0 {
			b = req.Batch[i-1]
		}
		if logged && b.Clock != 0 {
			if slices.Contains(fresh, b.Clock) {
				dups++
				continue
			}
			if _, _, seen := e.lookupDup(b.Clock, req.Key); seen {
				dups++
				continue
			}
			fresh = append(fresh, b.Clock)
		}
		delta += b.Delta
		last = b.Clock
	}
	if dups == n {
		// Every entry already applied: reply with the logged result of the
		// last one, failed or not.
		e.countEmulated(req.Key.Vertex, uint64(dups))
		v, ok, _ := e.lookupDup(b.Clock, req.Key)
		sh.mu.Unlock()
		return Reply{Val: v, OK: ok, Emulated: true}
	}

	ent, exists := sh.data[req.Key]

	// Ownership checks: a key bound to an instance rejects access from
	// others (§4.3 state metadata).
	if exists && ent.owner != 0 && req.Instance != 0 && ent.owner != req.Instance {
		switch req.Op {
		case OpAssociate, OpDisassoc:
			// Handled below: association conflict reported there.
		default:
			sh.mu.Unlock()
			return Reply{Conflict: true}
		}
	}
	if dups > 0 {
		e.countEmulated(req.Key.Vertex, uint64(dups))
	}

	var rep Reply
	var ownerChanged bool
	var newOwner uint16

	switch req.Op {
	case OpGet:
		if exists {
			rep = Reply{Val: ent.val.Copy(), OK: true}
		} else {
			rep = Reply{OK: false}
		}
	case OpDelete:
		delete(sh.data, req.Key)
		rep = Reply{OK: exists}
	case OpCustom:
		fn, ok := e.customs[req.Custom]
		if !ok {
			rep = Reply{OK: false}
		} else {
			if !exists {
				ent = &entry{}
				sh.data[req.Key] = ent
			}
			res, ok := fn(&ent.val, req.Arg)
			rep = Reply{Val: res, OK: ok}
		}
	case OpNonDet:
		var v Value
		switch req.NDKind {
		case NDTime:
			v = IntVal(e.nowFn())
		default:
			e.rngMu.Lock()
			v = IntVal(e.rng.Int63())
			e.rngMu.Unlock()
		}
		rep = Reply{Val: v, OK: true}
	case OpAssociate:
		if !exists {
			ent = &entry{}
			sh.data[req.Key] = ent
		}
		if ent.owner == 0 || ent.owner == req.Instance {
			if ent.owner != req.Instance {
				ent.owner = req.Instance
				ownerChanged, newOwner = true, ent.owner
			}
			rep = Reply{OK: true, Val: ent.val.Copy()}
		} else {
			rep = Reply{Conflict: true}
		}
	case OpDisassoc:
		if exists && ent.owner == req.Instance {
			ent.owner = 0
			ownerChanged, newOwner = true, 0
			rep = Reply{OK: true}
		} else {
			rep = Reply{OK: exists && ent.owner == 0}
		}
	default:
		// A value op on an absent key runs on the zero Value and creates
		// the key unless it failed; CAS creates it either way. A coalesced
		// increment applies the sum of its fresh entries once.
		op := req
		if n > 1 {
			op = &Request{Op: req.Op, Field: req.Field, Arg: IntVal(delta)}
		}
		if exists {
			rep = ApplyToValue(&ent.val, op)
		} else {
			var v Value
			if rep = ApplyToValue(&v, op); rep.OK || req.Op == OpCAS {
				ent = &entry{val: v}
				sh.data[req.Key] = ent
			}
		}
	}

	mutated := rep.OK && req.Op.Mutates()

	// Track TS: the clock of the last UPDATE operation executed on behalf
	// of each instance (Fig 7 metadata), for a coalesced increment its last
	// fresh entry's. The clock is a position marker in the instance's
	// issue-ordered WAL, so it is overwritten (not maxed): cache flushes
	// can legitimately deliver older clocks later.
	if mutated && last != 0 && req.Instance != 0 {
		e.tsMu.Lock()
		e.ts[req.Instance] = last
		e.tsMu.Unlock()
	}

	if req.WantTS {
		rep.TS = e.TS()
	}
	notify := mutated && e.listening(req.Key)
	var updVal Value
	if notify && ent != nil {
		updVal = ent.val.Copy()
	}
	sh.mu.Unlock()

	// Log each fresh entry for duplicate suppression after releasing the
	// shard lock: every op that commits below, failed or not, so a
	// replayed or retransmitted copy is emulated with the same result and
	// never commits twice (the root XORs commits, and a second one would
	// cancel the first). A mutating op the NF signed commits whether or
	// not it changed the value (a Delete of a key already gone, a Pop of
	// an empty pool): the packet's XOR vector counts it on issue. Only an
	// ownership conflict does not commit: an async op is re-offered until
	// it applies, and the NF does not sign a blocking one.
	for _, clock := range fresh {
		e.logDup(clock, req.Key, rep.Val, rep.OK)
		if e.hooks.OnCommit != nil && req.Op.Mutates() {
			e.hooks.OnCommit(clock, req.Instance, req.Key)
		}
	}
	if notify {
		e.hooks.OnUpdate(req.Key, updVal, req.Instance)
	}
	if ownerChanged && e.hooks.OnOwnerChange != nil {
		e.hooks.OnOwnerChange(req.Key, newOwner)
	}
	return rep
}

// listening reports whether a mutation of k has to hand its post-op value
// to OnUpdate. Callers hold k's shard lock.
func (e *Engine) listening(k Key) bool {
	return e.hooks.OnUpdate != nil && (e.hooks.Listening == nil || e.hooks.Listening(k))
}

// TS returns a copy of the per-instance last-executed-update clock vector.
func (e *Engine) TS() map[uint16]uint64 {
	e.tsMu.Lock()
	defer e.tsMu.Unlock()
	out := make(map[uint16]uint64, len(e.ts))
	for inst, c := range e.ts {
		out[inst] = c
	}
	return out
}

// ReassignOwner transfers every key owned by from to to — the datastore
// manager's action on NF failover (§5.4: "associates the failover
// instance's ID with relevant state"). Returns the number of keys moved.
func (e *Engine) ReassignOwner(from, to uint16) int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, ent := range sh.data {
			if ent.owner == from {
				ent.owner = to
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Owner returns the owning instance of key (0 if shared or absent).
func (e *Engine) Owner(k Key) uint16 {
	sh := e.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ent, ok := sh.data[k]; ok {
		return ent.owner
	}
	return 0
}

// Get is a convenience read without a Request (tests, recovery).
func (e *Engine) Get(k Key) (Value, bool) {
	sh := e.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ent, ok := sh.data[k]; ok {
		return ent.val.Copy(), true
	}
	return Value{}, false
}

// Len returns the number of stored keys.
func (e *Engine) Len() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += len(sh.data)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot captures every entry, with ownership and the TS vector — the
// periodic checkpoint of §5.4.
type Snapshot struct {
	Entries map[Key]Value
	Owners  map[Key]uint16
	TS      map[uint16]uint64
	// Pos records, per instance, how many of that instance's WAL entries
	// (for this shard) the state covers. The server stamps it at
	// checkpoint time; the engine itself does not track it. Unlike the TS
	// clock vector — whose clocks can occur at several WAL positions when
	// flush paths reorder a packet's ops — Pos identifies the replay
	// resume point exactly.
	Pos map[uint16]uint64
}

// Snapshot deep-copies the engine's state.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		Entries: make(map[Key]Value),
		Owners:  make(map[Key]uint16),
		TS:      make(map[uint16]uint64),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for k, ent := range sh.data {
			s.Entries[k] = ent.val.Copy()
			if ent.owner != 0 {
				s.Owners[k] = ent.owner
			}
		}
		sh.mu.Unlock()
	}
	e.tsMu.Lock()
	for inst, c := range e.ts {
		s.TS[inst] = c
	}
	e.tsMu.Unlock()
	return s
}

// Restore loads a snapshot into an empty engine (store-instance recovery).
func (e *Engine) Restore(s *Snapshot) {
	for k, v := range s.Entries {
		sh := e.shardFor(k)
		sh.mu.Lock()
		ent := &entry{val: v.Copy()}
		if o, ok := s.Owners[k]; ok {
			ent.owner = o
		}
		sh.data[k] = ent
		sh.mu.Unlock()
	}
	e.tsMu.Lock()
	for inst, c := range s.TS {
		e.ts[inst] = c
	}
	e.tsMu.Unlock()
}
