package runtime

import (
	"fmt"
	"sync"
	"time"

	"chc/internal/clockset"
	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// PacketMsg is the ingress envelope a packet can arrive at the root in,
// kept for the benchmark harness (bench/), which builds it. Chain
// components send the *packet.Packet itself, its hop stamp in SentNs;
// packetOf unwraps the envelope.
type PacketMsg struct {
	Pkt *packet.Packet
	// InjectedAt is the sender's injection time, carried on the wire; the
	// chain reads none of it: the root stamps Packet.IngressNs itself.
	InjectedAt transport.Time
	// SentAt is when the sender emitted it; packetOf copies it to SentNs.
	SentAt transport.Time
}

// Delete is one delete request (§5): packet Clock finished chain
// processing; Vec is its final XOR bit vector (Fig 6 step 3).
type Delete struct {
	Clock uint64
	Vec   uint32
}

// DeleteMsg is the last-NF -> root delete message: the deletes of one
// instance burst (flushBurst), or a synchronous delete's single one. Its
// modeled Size is a 4-byte count plus 12 bytes per delete, 16 for one.
type DeleteMsg struct {
	Dels []Delete
	// Reply, when non-nil, is resolved once the root has handled every
	// delete (synchronous delete mode).
	Reply transport.Signal
}

// fig6Term is one update's contribution to the Fig 6 bit vector: the paper's
// instanceID‖objectID, passed through a 32-bit bijective mixer (murmur3's
// finalizer; the offset keeps the term of small IDs away from the mixer's
// fixed point 0). The mix is what makes the XOR check sound. Instance and object IDs are small and dense, and the
// raw instance<<16|obj terms of such IDs are linearly dependent —
// (1,1)^(2,2)^(3,3) == 0 — so a vector could balance while those three
// commits were all still outstanding: the root deleted the packet early and
// its prune overtook the ops (DESIGN.md §7). Mixed terms are pairwise
// distinct, and any three or more outstanding ones cancel with probability
// 2^-32. The instance signing a packet and the root accumulating commits
// are the only two users; both must agree, so the mix takes no seed.
func fig6Term(instance, obj uint16) uint32 {
	x := (uint32(instance)<<16 | uint32(obj)) + 0x9e3779b9
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// FlowTableQuery asks an instance for its current flow allocation (root
// recovery, §5.4).
type FlowTableQuery struct{}

// Instance is one physical NF instance: an endpoint, worker processes, an
// NF value and its state backend.
type Instance struct {
	chain    *Chain
	vertex   *Vertex
	ID       uint16
	Endpoint string
	// xorID is the instance identity used for Fig 6 XOR bit-vector
	// contributions. Normally the instance's own ID; a failover
	// replacement or straggler clone inherits the xorID of the instance it
	// stands in for (so chained failovers keep the original's), and a
	// replayed or replicated packet's vector matches commit signals the
	// ORIGINAL instance already sent — otherwise every clock with pre-crash
	// commits would stay unbalanced (and logged at the root) forever. The
	// root canonicalizes commit signals through the same field. Set before
	// the instance is published, never after.
	xorID uint16

	nfImpl nf.NF
	state  nf.State
	client *store.Client // nil for non-CHC backends

	procs []transport.Handle

	// procTime and totalTime are the vertex's "proc." and "total." series
	// (dequeue -> done, and arrival -> done including queueing), resolved
	// once: Metrics.Get takes the chain-wide lock and builds the name.
	procTime, totalTime *Series

	// mu guards the per-instance mutable sets and counters shared between
	// the worker process, the framework (scale-in polls, replay control)
	// and — in live mode — concurrent upstream deliveries. Never held
	// across blocking operations.
	mu  sync.Mutex
	seq uint64

	// seen implements queue-level duplicate suppression (R5): clocks this
	// instance has already accepted.
	seen clockset.Set
	// inFlight counts packets a worker has accepted (marked seen) but not
	// finished processing — a worker blocked in a handover acquire or a
	// service sleep holds one. Scale-in quiescence requires zero.
	inFlight int
	// xorLog records the XOR bit-vector contribution of each processed
	// clock. A replayed packet re-executed here on its way to a downstream
	// clone repeats the RECORDED contribution instead of the recomputed
	// one: an instance's own reads are not clock-emulated (the store serves
	// logged first-pass reads only to other instances), so re-executed
	// control flow can drift (e.g. a FIN whose port mapping the first pass
	// already deleted), and a drifted vector would leave the packet's Fig 6 check
	// unbalanced forever. Kept only by store-backed instances (without a
	// client every contribution is 0): 4 bytes per clock, never deleted.
	xorLog clockset.Table[uint32]

	// parked buffers replicated live traffic while replayed traffic is
	// being processed (§5.3 straggler cloning / failover bring-up).
	// markersLeft counts the end-of-replay markers still expected — one
	// per traffic class routed through this vertex — before the drain.
	buffering   bool
	parked      []*packet.Packet
	markersLeft int

	// ExtraDelay, if set, adds per-packet delay to THIS instance
	// (straggler/slow-NF emulation for the R4/R5 experiments). It receives
	// the sim's deterministic Int63n.
	ExtraDelay func(intn func(int64) int64) time.Duration

	// Burst output buffers, flushed by flushBurst: out holds the
	// per-successor-vertex packet runs (off-path taps included), delBuf the
	// delete requests, sinkBuf the tail outputs. No blocking point lies
	// between buffering a packet's outputs and the next flush (see run), so
	// the buffers are empty whenever a worker blocks. That is what lets the
	// DES's coroutine workers share them, and live runs one worker per
	// instance; they need no locking. delSlab cuts the slices DeleteMsgs
	// carry.
	out     fwdBuf
	delBuf  []Delete
	sinkBuf []transport.Message
	delSlab transport.Slab[Delete]

	dead bool
	// draining marks an instance being scaled in: the splitter stops
	// placing NEW partition keys on it while its existing flows hand over
	// to the survivors (Chain.scaleIn).
	draining bool

	// Stats.
	Processed      uint64
	BytesProcessed uint64
	Suppressed     uint64
	DupSeen        uint64 // duplicates observed when suppression is OFF (Table 5)
	// DupStateEvents counts duplicate connection-event packets (SYN,
	// SYN-ACK, RST): the packets that would spuriously re-trigger state
	// updates at a detector (Table 5 "duplicate state updates").
	DupStateEvents uint64
}

// newInstance allocates v's next instance in the draft topology t (see
// Chain.publish): it takes the next global ID and enters t's ID tables
// serving itself. It is not started, and in no routing slot until the
// calling verb places it.
func (c *Chain) newInstance(t *topology, v *Vertex) *Instance {
	id := uint16(len(t.byID))
	ep := fmt.Sprintf("v%d.i%d", v.ID, id)
	inst := &Instance{
		chain:     c,
		vertex:    v,
		ID:        id,
		Endpoint:  ep,
		xorID:     id,
		nfImpl:    v.Spec.Make(),
		procTime:  c.Metrics.Get("proc." + v.Spec.Name),
		totalTime: c.Metrics.Get("total." + v.Spec.Name),
	}
	switch v.Spec.Backend {
	case BackendTraditional:
		ls := nf.NewLocalState(v.ID, c.cfg.Seed+int64(id))
		if p, ok := inst.nfImpl.(nf.CustomOpProvider); ok {
			for name, fn := range p.CustomOps() {
				ls.RegisterCustom(name, fn)
			}
		}
		inst.state = ls
	case BackendLocking:
		inst.client = c.newClient(v, id, ep, store.Mode{})
		inst.state = &nf.LockingState{C: inst.client}
	default:
		inst.client = c.newClient(v, id, ep, v.Spec.Mode)
		inst.state = &nf.ClientState{C: inst.client}
	}
	t.byID = append(t.byID, inst)
	t.serving = append(t.serving, inst)
	t.replica = append(t.replica, nil)
	return inst
}

func (c *Chain) newClient(v *Vertex, id uint16, ep string, mode store.Mode) *store.Client {
	return store.NewClient(c.tr, store.ClientConfig{
		Vertex:         v.ID,
		Instance:       id,
		Endpoint:       ep,
		Store:          StoreEndpoint,
		Shards:         c.pmap.Shards,
		Mode:           mode,
		Decls:          v.Spec.Make().Decls(),
		FlushEvery:     c.cfg.FlushEvery,
		CoalesceWindow: c.cfg.CoalesceWindow,
		AckTimeout:     c.cfg.AckTimeout,
		RPCTimeout:     c.cfg.RPCTimeout,
	})
}

// Client exposes the store client (nil for traditional instances).
func (i *Instance) Client() *store.Client { return i.client }

// ProcessedCount reads the processed-packet counter under the instance
// lock (safe while workers are running; the exported Processed field is
// only safe to read once the chain is stopped or drained).
func (i *Instance) ProcessedCount() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.Processed
}

// inFlightCount reads the accepted-but-unfinished packet count under the
// instance lock (scale-in quiescence).
func (i *Instance) inFlightCount() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.inFlight
}

// holdsParked reports whether the instance is a replay target still
// buffering, or holds parked live packets awaiting the end-of-replay
// drain. Such an instance is never quiescent: the parked packets are in
// no inbox and no counter, and crashing would silently drop them.
func (i *Instance) holdsParked() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.buffering || len(i.parked) > 0
}

// isDead reads the fail-stop flag under the instance lock (live-mode
// failover flips it concurrently with splitter routing decisions).
func (i *Instance) isDead() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.dead
}

// isDraining reads the scale-in drain flag under the instance lock.
func (i *Instance) isDraining() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.draining
}

func (i *Instance) setDead(v bool) {
	i.mu.Lock()
	i.dead = v
	i.mu.Unlock()
}

func (i *Instance) setDraining(v bool) {
	i.mu.Lock()
	i.draining = v
	i.mu.Unlock()
}

// NFImpl exposes the NF value (experiments inspect detector verdicts).
func (i *Instance) NFImpl() nf.NF { return i.nfImpl }

// Start spawns the worker processes. The real-time substrates run exactly
// one run-to-completion worker per instance (the NF values keep
// instance-local state; see ChainConfig.Substrate). On a SubstrateNet
// worker process, instances homed on other nodes do not spawn — the check
// lives here (not in Chain.Start) so failover and scale-out replacements
// created at runtime obey placement too.
func (i *Instance) Start() {
	if !i.chain.onNode(i.Endpoint) {
		return
	}
	i.setDead(false)
	n := i.vertex.Spec.Threads
	if n <= 0 || i.chain.live() {
		n = 1
	}
	for w := 0; w < n; w++ {
		name := fmt.Sprintf("%s.w%d", i.Endpoint, w)
		i.procs = append(i.procs, i.chain.tr.Spawn(name, i.run))
	}
	if i.client != nil {
		i.client.StartFlusher()
		i.applyExclusivityDefaults()
	}
}

// Crash fail-stops the instance: workers killed, endpoint down, local state
// (and for CHC, only the cache) lost, outstanding retransmissions silenced.
func (i *Instance) Crash() {
	i.setDead(true)
	for _, p := range i.procs {
		i.chain.tr.Kill(p)
	}
	i.procs = nil
	if i.client != nil {
		i.client.StopFlusher()
		i.client.Shutdown()
	}
	i.chain.tr.Crash(i.Endpoint)
}

// applyExclusivityDefaults derives per-object cache permissions from the
// upstream splitter's partitioning scope (§4.3 split-aware caching).
func (i *Instance) applyExclusivityDefaults() {
	split := i.vertex.Splitter
	for _, d := range i.nfImpl.Decls() {
		if store.StrategyFor(d) != store.StratSplitAware {
			continue
		}
		i.client.SetObjExclusive(d.ID, split.GrantsExclusive(d.Scope))
	}
}

// run is one worker loop: each drained burst's outputs are buffered and
// leave together (flushBurst). Besides the end of a burst, the worker
// flushes before each blocking point it can reach with outputs in hand: a
// handover acquire or release, a synchronous delete's wait, and each packet
// endReplay drains. On the DES, whose bursts are of one, a worker therefore
// sends exactly what it sent when each output left as it was made.
func (i *Instance) run(p transport.Proc) {
	ep := i.chain.tr.Endpoint(i.Endpoint)
	ctx := nf.NewCtx(p, i.state, i.chain.Metrics.alert)
	ctx.Arena = i.chain.arena
	bs := i.chain.burstSize()
	handle := func(pkt *packet.Packet) { i.handlePacket(p, ctx, pkt) }
	flush := func() { i.flushBurst(p) }
	for {
		drain(p, ep, bs, handle, i.dispatch, flush)
	}
}

// dispatch handles one non-packet instance message.
func (i *Instance) dispatch(msg transport.Message) {
	switch m := msg.Payload.(type) {
	case transport.Call:
		if _, ok := m.Body().(FlowTableQuery); ok {
			m.Reply(i.vertex.Splitter.TableSnapshot(), 64)
		}
	default:
		if i.client != nil {
			i.client.HandleMessage(msg.Payload)
		}
	}
}

// flushBurst ships the buffered outputs: the per-vertex forward runs in
// first-use order, then the deletes as one DeleteMsg, then the sink
// outputs (§5.4 delete-before-output holds per packet because the sink goes
// last), then the store client's held async ops. For a tail with an
// off-path tap that is [tap copy, delete, sink] per packet. Packet
// references are zeroed as the buffers truncate so the arena can recycle
// the buffers once their new owners release them.
func (i *Instance) flushBurst(p transport.Proc) {
	i.out.flush(i.Endpoint, p.Now())
	if n := len(i.delBuf); n > 0 {
		i.chain.tr.Send(transport.Message{From: i.Endpoint, To: i.chain.Root.Endpoint,
			Payload: DeleteMsg{Dels: i.delSlab.Cut(i.delBuf...)}, Size: 4 + 12*n})
		i.delBuf = i.delBuf[:0]
	}
	if len(i.sinkBuf) > 0 {
		transport.SendBurst(i.chain.tr, i.sinkBuf)
		for idx := range i.sinkBuf {
			i.sinkBuf[idx] = transport.Message{}
		}
		i.sinkBuf = i.sinkBuf[:0]
	}
	if i.client != nil {
		i.client.FlushBurst()
	}
}

func (i *Instance) handlePacket(p transport.Proc, ctx *nf.Ctx, pkt *packet.Packet) {
	clock := pkt.Meta.Clock
	replay := pkt.Meta.Flags&packet.MetaReplay != 0

	// End-of-replay control marker (Proto 0): never processed as traffic.
	// If it is ours, count it off — the root sends one marker per traffic
	// class routed through the clone's vertex, and the drain starts only
	// after the last one, so no class's replay traffic can be overtaken by
	// another class's marker at a rejoin clone. Otherwise pass it down its
	// class path behind the replayed packets (FIFO per hop; chains with
	// multiple workers upstream of the clone inherit the paper's assumption
	// that replay traffic reaches the clone before the marker).
	if pkt.Proto == 0 && pkt.Meta.Flags&packet.MetaLastRp != 0 {
		if pkt.Meta.CloneID == i.ID {
			i.mu.Lock()
			i.markersLeft--
			last := i.markersLeft <= 0
			i.mu.Unlock()
			i.chain.arena.Put(pkt) // marker consumed here
			if last {
				i.endReplay(p, ctx)
			}
		} else if nxt := i.vertex.nextFor(pkt); nxt != nil {
			// Queued behind the replayed traffic already buffered for nxt,
			// so the marker cannot overtake it. Taps get no copy.
			i.out.add(nxt, pkt)
		}
		return
	}

	// R5 duplicate suppression at the queue: a clock this instance already
	// accepted is dropped before processing. Exception: a replayed packet
	// bound for a clone farther down its path must keep traveling even
	// though this instance already processed it on the first pass — it is
	// re-executed in emulation (the store's per-clock duplicate log repeats
	// every op's logged result, so state, outputs and XOR contributions
	// replay the first pass exactly) rather than suppressed, which would
	// starve the clone of its recovery stream whenever the failed vertex
	// is not the head of its path.
	i.mu.Lock()
	dup := i.seen.Has(clock)
	if dup && replay && pkt.Meta.CloneID != i.ID {
		if clone := i.chain.instanceByID(pkt.Meta.CloneID); clone != nil &&
			i.chain.downstreamOf(pkt.Meta.Class, i.vertex, clone.vertex) {
			dup = false
		}
	}
	if dup && i.suppressDup(pkt) {
		i.mu.Unlock()
		return
	}

	// §5.3: while a clone processes replayed traffic, replicated live
	// traffic is buffered by the framework. Parked packets are NOT marked
	// seen yet: the end-of-replay drain re-runs the duplicate check, so a
	// replayed copy of the same clock processed meanwhile wins and the
	// parked copy is suppressed then. Marking them seen here would make
	// the drain suppress live traffic that only ever arrived once —
	// dropped packets during every mid-flight failover.
	if i.buffering && !replay {
		i.parked = append(i.parked, pkt)
		i.mu.Unlock()
		return
	}
	i.seen.Add(clock)
	// inFlight covers the accepted-but-not-finished window: a worker can
	// block for a long time below (handover acquire, service sleep) with
	// the packet in hand and the inbox already empty — the scale-in
	// quiescence check must not read that as "nothing left to do".
	i.inFlight++
	i.mu.Unlock()
	defer func() {
		i.mu.Lock()
		i.inFlight--
		i.mu.Unlock()
	}()

	// Capture the handover marks, the hop stamp and the flow hash BEFORE
	// processing: process may release the packet to the arena
	// (consume/NoOut paths) or hand it to a hop that restamps it, and a
	// recycled buffer must not be read afterwards.
	flags := pkt.Meta.Flags
	sent := transport.Time(pkt.SentNs)
	var sub uint64
	if flags&(packet.MetaFirst|packet.MetaLast) != 0 {
		sub = pkt.Key().Canonical().Hash()
	}

	// Fig 4 handover, new-instance side: the first packet of a moved flow
	// acquires per-flow state ownership (waiting for the old instance's
	// release if needed).
	if flags&packet.MetaFirst != 0 && i.client != nil {
		i.flushBurst(p)
		acqStart := p.Now()
		timeout := i.chain.cfg.HandoverTimeout
		if timeout <= 0 {
			timeout = 250 * time.Millisecond
		}
		i.client.AcquireFlow(p, sub, timeout)
		// Handover latency: how long the moved flow's state was in transit
		// (the §7.3 R2 "move" measurement).
		i.chain.Metrics.Get("handover.acquire").AddAt(p.Now(), p.Now().Sub(acqStart))
	}

	start := p.Now()
	i.process(p, ctx, pkt)
	done := p.Now()
	i.mu.Lock()
	i.Processed++
	i.mu.Unlock()
	i.procTime.AddAt(done, done.Sub(start))
	i.totalTime.AddAt(done, done.Sub(sent))

	// Fig 4 handover, old-instance side: after processing the packet marked
	// "last", flush cached state and release ownership.
	if flags&packet.MetaLast != 0 && i.client != nil {
		i.flushBurst(p)
		i.client.ReleaseFlow(p, sub)
	}
}

// suppressDup is R5's admission verdict on a packet whose clock this
// instance already accepted: it counts the duplicate (DupSeen, and
// DupStateEvents for a connection event) and reports whether suppression
// drops it, counting Suppressed when it does. Expects i.mu held.
func (i *Instance) suppressDup(pkt *packet.Packet) bool {
	i.DupSeen++
	if pkt.IsSYN() || pkt.IsSYNACK() || pkt.IsRST() {
		i.DupStateEvents++
	}
	if !i.chain.cfg.DupSuppress {
		return false
	}
	i.Suppressed++
	return true
}

// process runs the NF and forwards outputs.
func (i *Instance) process(p transport.Proc, ctx *nf.Ctx, pkt *packet.Packet) {
	i.mu.Lock()
	i.seq++
	seq := i.seq
	i.mu.Unlock()
	ctx.ResetPacket(pkt.Meta.Clock, seq)

	svc := i.vertex.Spec.ServiceTime
	if i.ExtraDelay != nil {
		svc += i.ExtraDelay(i.chain.tr.Intn)
	}
	p.Sleep(svc)

	outs := i.nfImpl.Process(ctx, pkt)
	if i.vertex.Spec.OffPath {
		// Off-path NFs consume their traffic copy; anything they return is
		// analysis output, never forwarded.
		outs = nil
	}

	// Fig 6 step 1: XOR the (instanceID, objID) term of each object this
	// packet updated into the carried bit vector. Only store-backed instances
	// participate — the vector is matched against store commit signals.
	var xor uint32
	if i.client != nil {
		for _, obj := range ctx.Updated {
			xor ^= fig6Term(i.xorID, obj)
		}
	}
	i.mu.Lock()
	i.BytesProcessed += uint64(pkt.WireLen())
	if i.client != nil {
		if prev := i.xorLog.Get(pkt.Meta.Clock); prev != nil {
			// Re-executed pass-through toward a downstream clone: repeat the
			// first pass's recorded contribution (see xorLog).
			xor = *prev
		} else {
			*i.xorLog.Put(pkt.Meta.Clock) = xor
		}
	}
	i.mu.Unlock()

	// The input's ownership ends here unless the NF forwarded it onward.
	consumed := true
	for _, out := range outs {
		if out == pkt {
			consumed = false
		}
		out.Meta.BitVec ^= xor
		i.forward(p, out)
	}
	if len(outs) == 0 && !i.vertex.Spec.OffPath {
		// The packet was consumed (dropped/absorbed) on-path: processing is
		// complete, so run the delete protocol here instead of at the tail.
		i.sendDelete(p, pkt.Meta.Clock, pkt.Meta.BitVec^xor)
	}
	if consumed {
		i.chain.arena.Put(pkt)
	}
}

// forward buffers one output packet: off-path taps get copies; the next
// hop is the packet's class-path successor; the tail of the class's path
// performs the delete protocol and emits to the sink.
func (i *Instance) forward(p transport.Proc, out *packet.Packet) {
	if i.out.forward(&i.vertex.successors, i.chain.arena, out) {
		return
	}
	// Tail of this packet's path: the receiver already has this packet if
	// the root marked it no-output during replay.
	if out.Meta.Flags&packet.MetaNoOut != 0 {
		i.chain.arena.Put(out)
		return
	}
	i.sendDelete(p, out.Meta.Clock, out.Meta.BitVec)
	out.SentNs = int64(p.Now())
	i.sinkBuf = append(i.sinkBuf, transport.Message{
		From: i.Endpoint, To: SinkEndpoint,
		Payload: out,
		Size:    out.WireLen(),
	})
}

// sendDelete buffers a delete request for flushBurst. With SyncDelete it
// flushes what is buffered instead and sends the delete alone, waiting for
// the root to handle it before the output is made (§5.4; +~1 RTT median,
// §7.2).
func (i *Instance) sendDelete(p transport.Proc, clock uint64, vec uint32) {
	d := Delete{Clock: clock, Vec: vec}
	if !i.chain.cfg.SyncDelete {
		i.delBuf = append(i.delBuf, d)
		return
	}
	i.flushBurst(p)
	del := DeleteMsg{Dels: i.delSlab.Cut(d), Reply: i.chain.tr.NewSignal()}
	i.chain.tr.Send(transport.Message{From: i.Endpoint, To: i.chain.Root.Endpoint, Payload: del, Size: 16})
	del.Reply.WaitTimeout(p, 5*time.Millisecond)
}

// StartReplayTarget puts the instance into replay mode: replayed packets
// process immediately, live replicated traffic parks until end-of-replay.
// The drain waits for one marker per traffic class routed through this
// vertex (the same set the root sends markers for).
func (i *Instance) StartReplayTarget() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.buffering = true
	i.markersLeft = 0
	for ci := range i.chain.classPaths {
		if i.vertex.OnClass(uint8(ci)) {
			i.markersLeft++
		}
	}
	if i.markersLeft == 0 {
		i.markersLeft = 1
	}
}

// endReplay drains parked traffic after the last end-of-replay marker
// (§5.3: "the framework hands buffered packets to the clone for
// processing"). The drain runs the same duplicate accounting as the live
// queue: a parked copy whose clock was meanwhile replayed counts toward
// DupSeen/DupStateEvents (the Table 5 metrics) and is suppressed only when
// suppression is on.
func (i *Instance) endReplay(p transport.Proc, ctx *nf.Ctx) {
	i.mu.Lock()
	i.buffering = false
	parked := i.parked
	i.parked = nil
	i.mu.Unlock()
	for _, pkt := range parked {
		i.mu.Lock()
		if i.seen.Has(pkt.Meta.Clock) && i.suppressDup(pkt) {
			i.mu.Unlock()
			continue
		}
		i.seen.Add(pkt.Meta.Clock)
		i.mu.Unlock()
		i.process(p, ctx, pkt)
		i.flushBurst(p)
		i.mu.Lock()
		i.Processed++
		i.mu.Unlock()
	}
}
