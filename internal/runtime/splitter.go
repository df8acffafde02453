package runtime

import (
	"sort"
	"sync"

	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// Splitter partitions traffic entering a vertex across its instances
// (§4.1). CHC inserts one after every upstream instance; since all upstream
// splitters share the same table, we model one splitter object per vertex
// routing messages from whatever upstream endpoint emitted them.
type Splitter struct {
	chain  *Chain
	vertex *Vertex

	// mu guards the tables the data path itself writes while routing
	// (moves, overrides, seenKeys) plus scopeIdx and splitHosts: in live
	// mode the root process, every upstream instance's worker and the
	// framework's scaling actions all route/mutate concurrently
	// (uncontended on the DES). Which instance serves an ID, and whether it
	// is dead or draining, is NOT here — that is the chain's published
	// topology, loaded once per route call. The packet path never sends
	// under mu (RouteBurst appends to its caller's list); a move's
	// ownership seeds do (StartMove, applyScaleOut), as they must leave
	// before any router sees the move, and on netnet such a Send can block.
	mu sync.Mutex

	// scopes are the candidate partitioning granularities, coarsest first
	// (the paper starts coarse to avoid sharing, refining only for load).
	scopes   []store.Scope
	scopeIdx int
	// flowObjs are the vertex's flow-scoped state objects (ownership
	// seeding targets for moves).
	flowObjs []uint16

	// overrides pins a partition key to an instance (completed moves, and
	// keys pinned in place during elastic rebalancing).
	overrides map[uint64]uint16
	// moves tracks in-progress Fig 4 handovers by canonical flow hash.
	moves map[uint64]*moveState
	// seenKeys records every partition key routed under scope partitioning.
	// Pure bookkeeping — it never influences a routing decision — consumed
	// by the elastic-scaling planners to know which keys may need to move.
	// Growth is one entry per distinct partition key, the same order as the
	// instances' per-clock duplicate-suppression sets.
	seenKeys map[uint64]struct{}
	// splitHosts routes these hosts' traffic per-flow across all instances
	// (the Fig 9 shared-set H experiment).
	splitHosts map[uint32]bool
	// splitObjs remembers which objects were de-exclusified for splitHosts
	// so a revert can restore their cache permissions.
	splitObjs []uint16
	// IdxFn, when set, selects the instance index directly (strongest
	// override; modulo the instance count).
	IdxFn func(*packet.Packet) int
}

type moveState struct {
	to uint16
	// from is the owner at StartMove time: the instance that receives the
	// "last" mark. Captured up front so a move survives the owner later
	// being marked draining (scale-in) without misrouting the mark.
	from      uint16
	lastSent  bool
	firstSent bool
}

// NewSplitter builds the vertex's splitter with the scope-aware default
// partitioning.
func NewSplitter(c *Chain, v *Vertex) *Splitter {
	s := &Splitter{
		chain:      c,
		vertex:     v,
		overrides:  make(map[uint64]uint16),
		moves:      make(map[uint64]*moveState),
		seenKeys:   make(map[uint64]struct{}),
		splitHosts: make(map[uint32]bool),
	}
	// Candidate scopes: the NF's declared non-global scopes, coarsest
	// first; always ending at flow granularity for load balance.
	seen := map[store.Scope]bool{}
	for _, d := range v.Spec.Make().Decls() {
		if d.Scope != store.ScopeGlobal {
			seen[d.Scope] = true
		}
		if d.Scope == store.ScopeFlow {
			s.flowObjs = append(s.flowObjs, d.ID)
		}
	}
	for _, sc := range []store.Scope{store.ScopeDstIP, store.ScopeSrcIP} {
		if seen[sc] {
			s.scopes = append(s.scopes, sc)
		}
	}
	s.scopes = append(s.scopes, store.ScopeFlow)
	return s
}

// Scope returns the active partitioning scope.
func (s *Splitter) Scope() store.Scope {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scopes[s.scopeIdx]
}

// Refine moves to the next finer scope (the framework does this when an
// operator's load policy reports uneven load, §4.1). Returns false at the
// finest.
func (s *Splitter) Refine() bool {
	s.mu.Lock()
	if s.scopeIdx+1 >= len(s.scopes) {
		s.mu.Unlock()
		return false
	}
	s.scopeIdx++
	s.mu.Unlock()
	s.notifyExclusivity()
	return true
}

// GrantsExclusive reports whether the current partitioning guarantees that
// any single key of the given scope is only accessed by one instance.
func (s *Splitter) GrantsExclusive(objScope store.Scope) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grantsExclusiveLocked(objScope)
}

func (s *Splitter) grantsExclusiveLocked(objScope store.Scope) bool {
	alive := s.aliveCount()
	if alive <= 1 {
		return true
	}
	if objScope == store.ScopeGlobal {
		return false
	}
	// Partitioning at a scope coarser than or equal to the object's scope
	// keeps each object single-writer (e.g. partition per-host, object
	// per-host or per-flow).
	return s.scopes[s.scopeIdx] >= objScope
}

func (s *Splitter) aliveCount() int {
	t := s.chain.topo.Load()
	n := 0
	for _, in := range t.slotsOf(s.vertex) {
		if !t.dead[in.ID] {
			n++
		}
	}
	return n
}

// notifyExclusivity pushes recomputed per-object cache permissions to every
// instance's client library (§4.3: the framework notifies the client-side
// library when to cache or flush).
func (s *Splitter) notifyExclusivity() {
	t := s.chain.topo.Load()
	for _, in := range t.slotsOf(s.vertex) {
		if in.client == nil || t.dead[in.ID] {
			continue
		}
		in.applyExclusivityDefaults()
	}
}

// partKey maps a packet to its partitioning key under scope sc. Host scopes
// key on the "inside" host so both directions of its flows colocate.
func partKey(pkt *packet.Packet, sc store.Scope) uint64 {
	switch sc {
	case store.ScopeSrcIP:
		return uint64(insideHost(pkt))
	case store.ScopeDstIP:
		return uint64(outsideHost(pkt))
	default:
		return pkt.Key().Canonical().Hash()
	}
}

func insideHost(pkt *packet.Packet) uint32 {
	if pkt.SrcIP&0xFF000000 == 0x0A000000 {
		return pkt.SrcIP
	}
	return pkt.DstIP
}

func outsideHost(pkt *packet.Packet) uint32 {
	if pkt.SrcIP&0xFF000000 == 0x0A000000 {
		return pkt.DstIP
	}
	return pkt.SrcIP
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// instanceFor picks the target instance for a partition key under routing
// snapshot t. Keys whose hash lands on a draining instance re-hash across
// the remaining instances — by construction only NEW keys do (a draining
// instance's existing keys were all moved or pinned before the drain flag
// was set), so no in-flight flow changes instance without a handover.
func (s *Splitter) instanceFor(t *topology, key uint64) *Instance {
	if id, ok := s.overrides[key]; ok {
		return t.serving[id]
	}
	in := t.pick(s.vertex, mix(key))
	if t.draining[in.ID] {
		// A retired instance keeps its draining flag, so post-drain traffic
		// also lands here (crashed-but-not-drained instances are the
		// failover path's business, via the serving table).
		if alt := rehash(key, s.liveSlots(t, 0)); alt != nil {
			// Pin the re-placement so later packets skip the slow path (and
			// keep this key stable if the instance set changes again).
			alt = t.serving[alt.ID]
			s.overrides[key] = alt.ID
			return alt
		}
	}
	return in
}

// liveSlots lists the vertex's live, non-draining slots other than
// instance skip (0 skips none).
func (s *Splitter) liveSlots(t *topology, skip uint16) []*Instance {
	var live []*Instance
	for _, in := range t.slotsOf(s.vertex) {
		if t.serves(in) && in.ID != skip {
			live = append(live, in)
		}
	}
	return live
}

// rehash deterministically places a key on one of live with a second-level
// hash, so the distribution differs from the primary placement; nil when
// live is empty.
func rehash(key uint64, live []*Instance) *Instance {
	if len(live) == 0 {
		return nil
	}
	return live[mix(mix(key)^0x9e3779b97f4a7c15)%uint64(len(live))]
}

// RouteBurst appends each packet's deliveries, stamped as sent at now, to
// out: its owning instance, with handover marks, host-split routing and
// straggler replication applied. It sends nothing; the caller sends out.
// Decisions are per packet (routeOne), so the DES's bursts of one and the
// live substrate's longer ones place packets alike; the whole burst routes
// under one topology snapshot.
func (s *Splitter) RouteBurst(from string, pkts []*packet.Packet, now transport.Time, out *[]transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.chain.topo.Load()
	for _, pkt := range pkts {
		s.routeOne(t, from, pkt, now, out)
	}
}

// routeOne applies the routing decision for one packet under routing
// snapshot t, appending its deliveries to out. Expects s.mu held.
func (s *Splitter) routeOne(t *topology, from string, pkt *packet.Packet, now transport.Time, out *[]transport.Message) {
	// End-of-replay marker: deliver straight to the clone when it lives in
	// this vertex; otherwise push it through an instance toward the next
	// vertex, behind the replayed traffic.
	if pkt.Proto == 0 && pkt.Meta.Flags&packet.MetaLastRp != 0 {
		if clone := s.chain.instanceByID(pkt.Meta.CloneID); clone != nil && clone.vertex == s.vertex {
			deliver(out, from, clone, pkt, now)
			return
		}
		deliver(out, from, s.instanceFor(t, 0), pkt, now)
		return
	}

	flowKey := pkt.Key().Canonical().Hash()

	// In-progress move for this flow (Fig 4)?
	if mv, ok := s.moves[flowKey]; ok {
		if !mv.lastSent {
			mv.lastSent = true
			marked := s.chain.arena.Clone(pkt)
			marked.Meta.Flags |= packet.MetaLast
			deliver(out, from, t.serving[mv.from], marked, now)
			// Subsequent packets go to the new instance.
			s.overrides[flowKey] = mv.to
			return
		}
		target := t.serving[mv.to]
		if !mv.firstSent {
			mv.firstSent = true
			marked := s.chain.arena.Clone(pkt)
			marked.Meta.Flags |= packet.MetaFirst
			deliver(out, from, target, marked, now)
			delete(s.moves, flowKey)
			return
		}
		deliver(out, from, target, pkt, now)
		return
	}

	var target *Instance
	switch {
	case s.IdxFn != nil:
		target = t.pick(s.vertex, uint64(s.IdxFn(pkt)))
	case len(s.splitHosts) > 0 && s.splitHosts[insideHost(pkt)]:
		// Shared-set hosts: flow-granularity spray across instances.
		target = t.pick(s.vertex, mix(flowKey))
	default:
		pk := partKey(pkt, s.scopes[s.scopeIdx])
		s.seenKeys[pk] = struct{}{}
		target = s.instanceFor(t, pk)
	}
	deliver(out, from, target, pkt, now)
	if clone := t.replica[target.ID]; clone != nil {
		deliver(out, from, clone, s.chain.arena.Clone(pkt), now)
	}
}

// deliver stamps one packet as sent at now and appends its delivery to
// target to out. Routing draws no RNG and sends nothing, so sending out in
// order gives the DES the schedule of immediate sends.
func deliver(out *[]transport.Message, from string, target *Instance, pkt *packet.Packet, now transport.Time) {
	pkt.SentNs = int64(now)
	*out = append(*out, transport.Message{
		From:    from,
		To:      target.Endpoint,
		Payload: pkt,
		Size:    pkt.WireLen(),
	})
}

// StartMove initiates Fig 4 handovers for the given canonical flow hashes
// toward instance to. The next matching packet carries the "last" mark to
// the old instance (captured now); the one after carries "first" to the
// new one. The moving flows' per-flow keys are ownership-seeded to the old
// instance first, so the new instance's acquire cannot overtake packets
// still queued at a backlogged old instance.
func (s *Splitter) StartMove(flowKeys []uint64, to uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.chain.topo.Load()
	for _, k := range flowKeys {
		s.startMoveFrom(k, s.instanceFor(t, k).ID, to)
	}
}

// startMoveFrom registers one handover with an explicit old owner. Callers
// that changed the instance set between planning and initiating (scale-out)
// must pass the PLANNED owner — re-deriving it from the enlarged hash would
// mark the wrong instance and strand the real owner's state.
func (s *Splitter) startMoveFrom(k uint64, from, to uint16) {
	s.seedOwnership(k, from)
	s.moves[k] = &moveState{to: to, from: from}
}

// seedOwnership pre-binds a moving flow's per-flow state to its current
// owner at the store tier (Fig 4 metadata prelude; see store.OwnerSeedMsg).
func (s *Splitter) seedOwnership(flowKey uint64, owner uint16) {
	for _, obj := range s.flowObjs {
		k := store.Key{Vertex: s.vertex.ID, Obj: obj, Sub: flowKey}
		s.chain.tr.Send(transport.Message{
			From: "framework", To: s.chain.pmap.ShardFor(k),
			Payload: store.OwnerSeedMsg{Key: k, Instance: owner}, Size: 20,
		})
	}
}

// --- Elastic rebalancing -----------------------------------------------------

// scaleOutPlan maps each seen, unpinned partition key to the instance it
// resolves to before a new instance joins.
type scaleOutPlan map[uint64]uint16

// planScaleOut snapshots current placements; call BEFORE appending the new
// instance so the pre-scale hash targets are still computable.
func (s *Splitter) planScaleOut() scaleOutPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	plan := make(scaleOutPlan, len(s.seenKeys))
	t := s.chain.topo.Load()
	for k := range s.seenKeys {
		if _, ov := s.overrides[k]; ov {
			continue // already pinned; the enlarged hash never sees it
		}
		if _, mv := s.moves[k]; mv {
			continue // mid-handover; its move decides its placement
		}
		plan[k] = s.instanceFor(t, k).ID
	}
	return plan
}

// applyScaleOut reconciles the plan against the enlarged instance set:
// keys whose hash now lands on the NEW instance hand over to it (flow-scope
// partitioning moves them through the Fig 4 protocol; coarser scopes pin —
// host-granularity handover is not modeled); keys that would merely
// reshuffle among the old instances are pinned in place, preserving the
// consistent-hashing property that scale-out moves ~1/(N+1) of the keys and
// only toward the newcomer.
func (s *Splitter) applyScaleOut(plan scaleOutPlan, newID uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	canMove := s.scopes[s.scopeIdx] == store.ScopeFlow
	t := s.chain.topo.Load()
	// Deterministic key order: moves send ownership-seed messages, and map
	// iteration order would perturb same-instant scheduling (seed contract).
	keys := make([]uint64, 0, len(plan))
	for k := range plan {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, k := range keys {
		oldID := plan[k]
		newTarget := t.pick(s.vertex, mix(k)).ID
		if newTarget == oldID {
			continue
		}
		if canMove && newTarget == newID {
			s.startMoveFrom(k, oldID, newID)
		} else {
			s.overrides[k] = oldID
		}
	}
}

// planScaleIn maps each seen key owned by the draining instance to a
// deterministic target among the surviving (live, non-draining) instances.
// Handovers are flow-granularity only (Route matches moves by canonical
// flow hash): at a coarser partitioning scope the plan is empty, and the
// drain relies on the drain-aware re-hash plus retirement-time flush —
// the same unmanaged re-placement addInstance performs at those scopes.
func (s *Splitter) planScaleIn(drainID uint16) map[uint64]uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	targets := make(map[uint64]uint16)
	if s.scopes[s.scopeIdx] != store.ScopeFlow {
		return targets
	}
	t := s.chain.topo.Load()
	live := s.liveSlots(t, drainID)
	if len(live) == 0 {
		return targets
	}
	for k := range s.seenKeys {
		if _, mv := s.moves[k]; mv {
			continue
		}
		if s.instanceFor(t, k).ID != drainID {
			continue
		}
		targets[k] = rehash(k, live).ID
	}
	return targets
}

// RetireInstance scrubs every routing reference to a retiring instance at
// the end of its drain grace period, so no future packet can be delivered
// to the dead endpoint:
//
//   - drain-initiated handovers that never saw a packet force-complete
//     (the state was already flushed and its ownership released, so the
//     marked-packet handshake has nothing left to transfer);
//   - inbound handovers TOWARD the retiree that never started are dropped
//     (the flow never left its old owner);
//   - inbound handovers already past their "last" mark re-home to a live
//     instance (the old owner already released the state);
//   - stale overrides pointing at the retiree are deleted, letting the
//     drain-aware hash place those keys.
func (s *Splitter) RetireInstance(id uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, mv := range s.moves {
		switch {
		case mv.from == id:
			s.overrides[k] = mv.to
			delete(s.moves, k)
		case mv.to == id && !mv.lastSent:
			delete(s.moves, k)
		case mv.to == id:
			t := s.chain.topo.Load()
			if in := rehash(k, s.liveSlots(t, 0)); in != nil {
				s.overrides[k] = t.serving[in.ID].ID
			} else {
				delete(s.overrides, k)
			}
			delete(s.moves, k)
		}
	}
	for k, ov := range s.overrides {
		if ov == id {
			delete(s.overrides, k)
		}
	}
}

// SetSplitHosts routes the given hosts' traffic per-flow across instances
// (creating cross-instance sharing for their per-host state) and notifies
// instance caches: affected entries are flushed and served by blocking
// store ops until exclusivity returns. Passing nil reverts to scope
// partitioning and restores cache permission for the previously split set.
func (s *Splitter) SetSplitHosts(hosts []uint32, objs []uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.splitHosts
	prevObjs := s.splitObjs
	s.splitHosts = make(map[uint32]bool)
	for _, h := range hosts {
		s.splitHosts[h] = true
	}
	s.splitObjs = objs
	// Sorted-keys idiom: SetExclusive can flush cache entries (messages to
	// the store), so the revert fan-out must not follow map order.
	prevSorted := make([]uint32, 0, len(prev))
	for h := range prev {
		prevSorted = append(prevSorted, h)
	}
	sort.Slice(prevSorted, func(i, j int) bool { return prevSorted[i] < prevSorted[j] })
	t := s.chain.topo.Load()
	for _, in := range t.slotsOf(s.vertex) {
		if in.client == nil || t.dead[in.ID] {
			continue
		}
		// Revert the previous split set first.
		for _, obj := range prevObjs {
			for _, h := range prevSorted {
				if !s.splitHosts[h] {
					in.client.SetExclusive(obj, uint64(h), s.grantsExclusiveLocked(store.ScopeSrcIP))
				}
			}
		}
		for _, obj := range objs {
			for _, h := range hosts {
				in.client.SetExclusive(obj, uint64(h), false)
			}
		}
	}
}

// FlowTable is the splitter state a recovering root retrieves (§5.4).
type FlowTable struct {
	Scope     store.Scope
	Overrides map[uint64]uint16
}

// TableSnapshot returns a copy of the routing state.
func (s *Splitter) TableSnapshot() FlowTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	ov := make(map[uint64]uint16, len(s.overrides))
	for k, v := range s.overrides {
		ov[k] = v
	}
	return FlowTable{Scope: s.scopes[s.scopeIdx], Overrides: ov}
}
