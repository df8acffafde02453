package runtime

import (
	"sort"
	"time"

	"chc/internal/store"
	"chc/internal/transport"
)

// Dynamic actions: the routing-state verbs the Controller drives, and store
// failover.

// publish is the one way routing state changes: it hands edit a private
// copy of the current topology and then installs the result for every
// reader with a single atomic store (refreshing the exported
// Vertex.Instances views alongside). topoMu orders writers against each
// other only; readers never wait. Whatever a reader can reach through the
// new value — a replacement instance, its Fig 6 identity, its replay-target
// state — must be complete inside edit, before the store.
func (c *Chain) publish(edit func(t *topology)) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	cur := c.topo.Load()
	t := &topology{
		slots:   make([][]*Instance, len(cur.slots)),
		byID:    append([]*Instance(nil), cur.byID...),
		serving: append([]*Instance(nil), cur.serving...),
		replica: append([]*Instance(nil), cur.replica...),
	}
	for i, s := range cur.slots {
		t.slots[i] = append([]*Instance(nil), s...)
	}
	edit(t)
	for _, v := range c.Vertices {
		v.Instances = t.slotsOf(v)
	}
	c.topo.Store(t)
}

// redirect hands every ID that from serves over to to. Chains resolve
// here, once per verb, so the packet path never walks one.
func (t *topology) redirect(from, to *Instance) {
	for id, in := range t.serving {
		if in == from {
			t.serving[id] = to
		}
	}
}

// addInstance scales the vertex up with a fresh instance (elastic scaling,
// §5.1) without rebalancing. Deployment mutations go through the
// Controller (ApplySpec / AddInstance); this is its internal primitive.
func (c *Chain) addInstance(v *Vertex) *Instance {
	var in *Instance
	c.publish(func(t *topology) {
		in = c.newInstance(t, v)
		t.slots[v.ID-1] = append(t.slots[v.ID-1], in)
	})
	in.Start()
	v.Splitter.notifyExclusivity()
	return in
}

// moveFlows reallocates the given canonical flow hashes to instance to,
// using the Fig 4 handover protocol (Controller.MoveFlows is the public
// entry point).
func (c *Chain) moveFlows(v *Vertex, flowKeys []uint64, to *Instance) {
	v.Splitter.StartMove(flowKeys, to.ID)
}

// scaleOut adds an instance mid-run and rebalances the splitter with
// consistent-hash movement: of the partition keys seen so far, only those
// that remap onto the NEW instance actually move — via Fig 4 handovers, so
// no in-flight flow is reordered — while keys that would merely reshuffle
// among the existing instances are pinned where they are. New keys hash
// across the enlarged instance set immediately.
func (c *Chain) scaleOut(v *Vertex) *Instance {
	plan := v.Splitter.planScaleOut()
	in := c.addInstance(v)
	v.Splitter.applyScaleOut(plan, in.ID)
	return in
}

// scaleIn drains one instance and removes it. Its partition keys hand over
// to the survivors through the move protocol (ordered per flow); the
// splitter stops placing new keys on it immediately; once grace has
// elapsed AND the instance is quiescent, it flushes its caches, any
// per-flow ownership left behind is released at the store tier, and the
// instance stops. Callers drive the simulation past grace (plus drain
// slack under backlog) before relying on the instance being gone.
func (c *Chain) scaleIn(v *Vertex, inst *Instance, grace time.Duration) {
	targets := v.Splitter.planScaleIn(inst.ID)
	keys := make([]uint64, 0, len(targets))
	for key := range targets {
		keys = append(keys, key)
	}
	// Deterministic move/seed order: map iteration order would perturb
	// same-instant message scheduling and break seed reproducibility.
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, key := range keys {
		v.Splitter.StartMove([]uint64{key}, targets[key])
	}
	inst.setDraining(true)
	last := inst.ProcessedCount()
	c.tr.Schedule(grace, func() { c.pollScaleIn(v, inst, last) })
}

// pollScaleIn retires the instance only once it is quiescent: an empty
// inbox, no packet processed since the previous poll, and no outstanding
// async state operations. The poll spacing exceeds the link latency, so
// quiescence across one interval means nothing is in flight toward the
// instance either — the final flush/release/crash then runs atomically
// without dropping a packet. The unacked-op condition matters when the
// drain follows a scale-out under backlog: ops this instance issued for a
// flow whose handover release is still pending sit conflicted-unacked,
// kept alive only by the client's retransmission — crashing now would
// silence the retries and lose the updates (their clocks' Fig 6 vectors
// could never balance).
func (c *Chain) pollScaleIn(v *Vertex, inst *Instance, lastProcessed uint64) {
	idle := c.tr.Endpoint(inst.Endpoint).Len() == 0 && inst.ProcessedCount() == lastProcessed &&
		inst.inFlightCount() == 0 && !inst.holdsParked()
	if inst.client != nil && (inst.client.PendingAcks() > 0 || inst.client.OutPending() > 0) {
		idle = false
	}
	if !idle {
		interval := 500 * time.Microsecond
		if m := 4 * c.cfg.LinkLatency; m > interval {
			interval = m
		}
		// Snapshot NOW (not at fire time) so the next poll really compares
		// against this poll's count.
		last := inst.ProcessedCount()
		c.tr.Schedule(interval, func() { c.pollScaleIn(v, inst, last) })
		return
	}
	c.finishScaleIn(v, inst)
}

// finishScaleIn completes a drain: outstanding handovers touching the
// drained instance are force-completed or retargeted (their flows route
// straight to live targets), straggler mirroring to or from it ends,
// cached operations flush, residual ownership is released on every shard,
// and the instance fail-stops. Slots and serving entries stay: the
// retiree keeps its draining flag, which is what diverts its hash share.
func (c *Chain) finishScaleIn(v *Vertex, inst *Instance) {
	v.Splitter.RetireInstance(inst.ID)
	c.publish(func(t *topology) {
		for id, clone := range t.replica {
			if clone == inst || id == int(inst.ID) {
				t.replica[id] = nil
			}
		}
	})
	if inst.client != nil {
		inst.client.FlushAll()
	}
	for _, s := range c.Stores {
		s.Engine().ReassignOwner(inst.ID, 0)
	}
	inst.Crash()
	v.Splitter.notifyExclusivity()
}

// failoverNF replaces a crashed (or about-to-be-crashed) instance: a fresh
// instance takes over its ID space, the datastore manager re-binds per-flow
// state, routing redirects, and the root replays logged packets
// (§5.4 "NF Failover").
//
// The replacement takes over the crashed instance's ROUTING SLOT in the
// vertex (in-place, not appended): the splitter partitions by
// hash % len(instances), so growing the list on failover would remap
// every flow mid-replay. A remapped flow's replayed packets then
// re-execute at a DIFFERENT live instance, whose re-applied ops commit
// under that instance's identity while the packet's first-pass XOR vector
// counted them under the crashed instance — a permanently unbalanced
// clock. The DES never surfaced this (its failovers land at quiescent
// instants where every op is already flushed and re-execution is fully
// emulated); live mid-stream crashes hit it immediately.
//
// Slot, redirect and Fig 6 identity go out in ONE publish, after the
// replacement is built and marked a replay target: a concurrent router
// sees the old instance everywhere or the new one everywhere, never an ID
// that resolves to nothing.
func (c *Chain) failoverNF(old *Instance) *Instance {
	if !old.isDead() {
		old.Crash()
	}
	v := old.vertex
	var nu *Instance
	c.publish(func(t *topology) {
		nu = c.newInstance(t, v)
		nu.xorID = old.xorID
		nu.StartReplayTarget()
		slots := t.slotsOf(v)
		for idx, in := range slots {
			if in == old {
				slots[idx] = nu
			}
		}
		t.redirect(old, nu)
	})
	// Datastore manager associates the failover instance's ID with the
	// failed instance's state, on every shard holding any of it.
	for _, s := range c.Stores {
		s.Engine().ReassignOwner(old.ID, nu.ID)
	}
	nu.Start()
	// Replay brings state up to speed with in-transit packets. In a
	// multi-process deployment every worker executes this verb (SPMD), but
	// only the replacement's home node asks the root to replay — N workers
	// requesting N replays would multiply the replay traffic.
	if c.onNode(nu.Endpoint) {
		c.sendControl(c.Root.Endpoint, ReplayCmd{CloneID: nu.ID})
	}
	return nu
}

// cloneStraggler deploys a clone alongside a straggler (§5.3): the clone is
// initialized from the store (nothing to copy — state is already external),
// replayed packets bring it up to speed, and the splitter replicates
// incoming traffic to both.
func (c *Chain) cloneStraggler(straggler *Instance) *Instance {
	v := straggler.vertex
	var clone *Instance
	c.publish(func(t *topology) {
		clone = c.newInstance(t, v) // per-instance ExtraDelay is not inherited
		clone.xorID = straggler.xorID
		clone.StartReplayTarget()
		t.slots[v.ID-1] = append(t.slots[v.ID-1], clone)
		t.replica[straggler.ID] = clone
	})
	clone.Start()
	if c.onNode(clone.Endpoint) {
		c.sendControl(c.Root.Endpoint, ReplayCmd{CloneID: clone.ID})
	}
	return clone
}

// retainFaster ends straggler mitigation keeping the clone: mirroring
// stops, the straggler's traffic redirects to the clone, and the straggler
// is killed.
func (c *Chain) retainFaster(straggler, clone *Instance) {
	c.publish(func(t *topology) {
		t.replica[straggler.ID] = nil
		t.redirect(straggler, clone)
	})
	straggler.Crash()
}

// --- Store failover ----------------------------------------------------------

// StoreRecoveryConfig models the costs of rebuilding a store instance.
type StoreRecoveryConfig struct {
	// PerOpCost is the time to decode and re-execute one WAL operation
	// (dominates recovery, Fig 14).
	PerOpCost time.Duration
	// PerClientRTTs is how many round trips fetching each client's WAL,
	// read-log and cached per-flow state costs.
	PerClientRTTs int
}

// DefaultStoreRecoveryConfig mirrors the paper's replay-bound recovery.
func DefaultStoreRecoveryConfig() StoreRecoveryConfig {
	return StoreRecoveryConfig{PerOpCost: 1200 * time.Nanosecond, PerClientRTTs: 2}
}

// RecoverStore fail-stops shard 0 and rebuilds it (the whole store tier in
// single-shard deployments). Kept as the §5.4 entry point fig14 measures.
func (c *Chain) RecoverStore(rcfg StoreRecoveryConfig) (took time.Duration, reexec int) {
	return c.RecoverStoreShard(0, rcfg)
}

// RecoverStoreShard fail-stops shard idx and rebuilds it per §5.4: per-flow
// state from client caches, shared state from the shard's last checkpoint
// plus WAL re-execution with TS selection. Client recovery inputs are
// filtered through the partition map so only the failed shard's keys are
// replayed — surviving shards are untouched. Returns the recovery duration
// and the number of re-executed operations.
func (c *Chain) RecoverStoreShard(idx int, rcfg StoreRecoveryConfig) (took time.Duration, reexec int) {
	old := c.Stores[idx]
	shard := old.Name
	old.Crash()

	done := c.tr.NewSignal()
	c.tr.Spawn("store-recovery", func(p transport.Proc) {
		start := p.Now()
		// Gather recovery inputs from every CHC client; each costs RTTs.
		// Each client's view is restricted to the failed shard's key slice.
		var clients []store.ClientState
		rtt := 2 * c.cfg.LinkLatency
		for _, v := range c.Vertices {
			for _, in := range c.topo.Load().slotsOf(v) {
				if in.client == nil || in.isDead() {
					continue
				}
				p.Sleep(time.Duration(rcfg.PerClientRTTs) * rtt)
				cs := store.ClientState{
					Instance: in.ID,
					WAL:      in.client.WAL(),
					ReadLog:  in.client.ReadLog(),
					PerFlow:  in.client.CachedPerFlow(),
					Dropped:  in.client.WALDropped()[shard],
				}
				clients = append(clients, cs.FilterForShard(c.pmap, shard))
			}
		}
		// Newest checkpoint that passes content-hash verification and
		// decodes; torn (begun-but-uncommitted) and corrupt entries are
		// skipped, falling back to the previous stable checkpoint, or to
		// full-WAL replay when none survives.
		snap, _, _ := old.StableState().LatestVerified()
		eng, n := store.RecoverEngine(store.RecoverInput{
			Checkpoint: snap,
			Clients:    clients,
		})
		reexec = n
		p.Sleep(time.Duration(n) * rcfg.PerOpCost)

		c.tr.Restart(shard)
		scfg := c.cfg.storeServerConfig(c.Root.Endpoint)
		ns := store.NewServerWithEngine(c.tr, shard, scfg, eng)
		// The replacement keeps writing into the crashed instance's durable
		// checkpoint area rather than starting an empty one.
		ns.AdoptStable(old.StableState())
		// The recovered engine covers each client's entire retained WAL
		// (plus the truncated prefix before it); seed the position vector
		// so the replacement's own checkpoints claim at least that much.
		seedPos := make(map[uint16]uint64, len(clients))
		for _, cs := range clients {
			seedPos[cs.Instance] = cs.Dropped + uint64(len(cs.WAL))
		}
		ns.SeedPositions(seedPos)
		for _, v := range c.Vertices {
			ns.Declare(v.ID, v.Spec.Make().Decls())
		}
		ns.Start()
		c.Stores[idx] = ns
		c.registerCustomOps()
		took = p.Now().Sub(start)
		done.Resolve(nil)
	})
	if !c.tr.Drive(done, 5*time.Second) {
		panic("store recovery did not complete")
	}
	return took, reexec
}
