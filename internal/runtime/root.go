package runtime

import (
	"fmt"
	"time"

	"chc/internal/clockset"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// Clock persistence key: roots store their clock under vertex 0.
const (
	rootVertexID  uint16 = 0
	rootClockObj  uint16 = 1
	rootLogObj    uint16 = 2
	localLogDelay        = 1 * time.Microsecond // §7.2: local logging ≈ 1µs/pkt
)

// ReplayCmd asks the root to replay its logged packets toward a recovering
// or cloned instance (§5.3/§5.4).
type ReplayCmd struct {
	CloneID uint16
}

// SweepCmd asks the root to retransmit logged packets that have made no
// delete progress for rootRetransmitAge — the §5.4 retransmission backstop.
// Live substrates lose packets for real (a worker process dying takes the
// bytes in its sockets with it), and a packet can slip into the root log
// concurrently with a failover's replay scan and miss both the scan and
// the dead instance. The sweep re-forwards such orphans through the
// splitters' CURRENT routing; duplicate suppression makes a retransmitted
// copy of a packet that survived after all harmless. The DES never sends
// this verb: deterministic schedules have no unaccounted loss.
type SweepCmd struct{}

// Live-mode retransmission sweep cadence and the idle age at which a
// logged packet is declared lost. The age is far above a healthy delete
// round-trip (p99 latency is tens of ms) and well under drain budgets.
const (
	rootSweepEvery    = 250 * time.Millisecond
	rootRetransmitAge = 750 * time.Millisecond
)

// RootStatsQuery asks the root for a statistics snapshot through its own
// event loop — the only way to read a consistent view while traffic is
// flowing in live mode (the root's counters belong to its process).
type RootStatsQuery struct{}

// RootStats is the reply to a RootStatsQuery.
type RootStats struct {
	Injected, Deleted, Dropped, Replayed uint64
	// Bursts counts multi-packet ingest flushes (live batching).
	Bursts                          uint64
	LogSize                         int
	InjectedByClass, DeletedByClass []uint64
}

// rootLogEntry is one in-flight packet (§5: "at any time, the root logs all
// packets that are being processed by one or more chain instances").
type rootLogEntry struct {
	pkt       *packet.Packet
	gotDelete bool
	finalVec  uint32
	// commitXor accumulates the store's Fig 6 step-2 commit signals for this
	// clock; the delete check passes when it equals finalVec. It lives and
	// dies with the entry, so a commit that arrives after the delete has
	// nowhere to land (see handleCommit).
	commitXor uint32
	// class is the traffic class the fork classifier assigned at ingest:
	// replay uses it to resend only the packets whose branch reaches the
	// recovering vertex, and the Fig 6 commit accounting uses it to reject
	// commits from vertices off the packet's path.
	class uint8
	// sentAt is when the packet was last forwarded (ingest, replay or
	// retransmission sweep); the sweep retransmits entries idle too long.
	sentAt transport.Time
}

// Root is the chain entry: it stamps logical clocks, logs in-flight
// packets, runs the delete/XOR protocol of Fig 6, and replays on demand.
type Root struct {
	chain    *Chain
	ID       uint8
	Endpoint string

	ctr          uint64
	traceCommits map[uint64][]store.Commit // debug only
	// log holds the in-flight packets by clock. The root stamps clocks in
	// ascending order, so walking it in clock order (replay, the sweep) is
	// walking it in insertion order.
	log         clockset.Table[rootLogEntry]
	next        []*Vertex // successor per traffic class (see topology.go)
	offPathTaps []*Vertex
	proc        transport.Handle
	procTime    *Series // "proc.root", resolved once
	// fwdBuf and runBuf are the burst-ingest scratch buffers (root process
	// only): the burst's packets to forward, and the same packets grouped
	// per traffic class.
	fwdBuf []*packet.Packet
	runBuf [][]*packet.Packet
	// prunes collects the clocks deleted while one inbound message is
	// handled (root process only); sendPrunes hands them to the shards in a
	// slice cut from pruneSlab.
	prunes    []uint64
	pruneSlab transport.Slab[uint64]

	// Stats.
	Injected uint64
	Deleted  uint64
	Dropped  uint64
	Replayed uint64
	// Bursts counts multi-packet ingest flushes (live batching).
	Bursts uint64
	// Per-class chain clocks (indexed by traffic-class index): how many
	// packets of each class were stamped and how many finished the Fig 6
	// delete protocol. InjectedByClass[i] == DeletedByClass[i] once a
	// class's traffic has drained is the per-branch conservation balance.
	InjectedByClass []uint64
	DeletedByClass  []uint64
}

// NewRoot builds a root (not started).
func NewRoot(c *Chain, id uint8, endpoint string) *Root {
	return &Root{
		chain:    c,
		ID:       id,
		Endpoint: endpoint,
		procTime: c.Metrics.Get("proc.root"),
	}
}

// Start spawns the root process.
func (r *Root) Start() {
	r.proc = r.chain.tr.Spawn(r.Endpoint, r.run)
}

// Crash fail-stops the root.
func (r *Root) Crash() {
	if r.proc != nil {
		r.chain.tr.Kill(r.proc)
	}
	r.chain.tr.Crash(r.Endpoint)
}

// LogSize reports in-flight packets.
func (r *Root) LogSize() int { return r.log.Len() }

// Clock returns the current counter (tests).
func (r *Root) Clock() uint64 { return r.ctr }

func (r *Root) run(p transport.Proc) {
	ep := r.chain.tr.Endpoint(r.Endpoint)
	bs := r.chain.burstSize()
	var batch []PacketMsg
	for {
		msg := ep.Recv(p)
		pm, isPkt := msg.Payload.(PacketMsg)
		if !isPkt {
			r.dispatch(p, msg)
			continue
		}
		if bs <= 1 {
			r.ingest(p, pm)
			continue
		}
		// Burst accumulation (live only; DES burst size is pinned to 1):
		// drain whatever packets are already queued, up to the burst size,
		// stamping and logging each, then flush their forwards as one
		// RouteBurst. A non-packet message encountered mid-drain flushes
		// first so side effects stay in arrival order.
		batch = append(batch[:0], pm)
		for len(batch) < bs && ep.Len() > 0 {
			nxt := ep.Recv(p)
			if npm, ok := nxt.Payload.(PacketMsg); ok {
				batch = append(batch, npm)
				continue
			}
			r.ingestBurst(p, batch)
			batch = batch[:0]
			r.dispatch(p, nxt)
		}
		if len(batch) > 0 {
			r.ingestBurst(p, batch)
			batch = batch[:0]
		}
	}
}

// dispatch handles one non-packet root message. The clocks a delete or
// commit message lets the root delete are pruned at the shards once the
// whole message is handled, in one PruneMsg per shard; a one-entry message
// (every one on the DES) prunes at once, as a single signal always did.
func (r *Root) dispatch(p transport.Proc, msg transport.Message) {
	switch m := msg.Payload.(type) {
	case DeleteMsg:
		for _, d := range m.Dels {
			r.handleDelete(d)
		}
		r.sendPrunes()
		if m.Reply != nil && !m.Reply.Resolved() {
			m.Reply.Resolve(struct{}{})
		}
	case store.CommitMsg:
		for _, c := range m.Commits {
			r.handleCommit(c)
		}
		r.sendPrunes()
	case ReplayCmd:
		r.replay(p, m.CloneID)
	case SweepCmd:
		r.sweepRetransmit(p)
	case transport.Call:
		switch m.Body().(type) {
		case store.PartitionQuery:
			// The root is the authority for the shard partition map: new
			// or recovering components fetch it here (§5.4 metadata).
			m.Reply(r.chain.pmap.Copy(), 16+16*len(r.chain.pmap.Shards))
		case RootStatsQuery:
			m.Reply(r.statsSnapshot(), 64)
		}
	}
}

// ingest stamps, persists, logs and forwards one input packet.
func (r *Root) ingest(p transport.Proc, m PacketMsg) {
	if pkt := r.ingestCore(p, m); pkt != nil {
		r.forward(p, pkt, p.Now())
	}
}

// ingestBurst ingests a drained batch and flushes all its forwards as one
// burst per successor vertex (the live hot path).
func (r *Root) ingestBurst(p transport.Proc, batch []PacketMsg) {
	fwd := r.fwdBuf[:0]
	for _, m := range batch {
		if pkt := r.ingestCore(p, m); pkt != nil {
			fwd = append(fwd, pkt)
		}
	}
	r.fwdBuf = fwd[:0]
	if len(fwd) == 0 {
		return
	}
	r.Bursts++
	now := p.Now()
	for _, tap := range r.offPathTaps {
		// Taps process copies; the originals continue down the chain.
		cl := make([]*packet.Packet, len(fwd))
		for i, pkt := range fwd {
			cl[i] = pkt.Clone()
		}
		tap.Splitter.RouteBurst(r.Endpoint, cl, now)
	}
	// Group per traffic class, preserving arrival order within each class;
	// packets whose class has no successor end here (mirrors forward()).
	// Every packet's fate is decided BEFORE any is routed: once RouteBurst
	// hands a packet downstream the sink may Put it and the injector reuse
	// it, so a forwarded packet must never be read again.
	if len(r.runBuf) < len(r.next) {
		r.runBuf = make([][]*packet.Packet, len(r.next))
	}
	for _, pkt := range fwd {
		ci := int(pkt.Meta.Class)
		if ci >= len(r.next) || r.next[ci] == nil {
			r.chain.arena.Put(pkt)
			continue
		}
		r.runBuf[ci] = append(r.runBuf[ci], pkt)
	}
	for ci, run := range r.runBuf {
		if len(run) == 0 {
			continue
		}
		r.next[ci].Splitter.RouteBurst(r.Endpoint, run, now)
		clear(run)
		r.runBuf[ci] = run[:0]
	}
}

// ingestCore stamps, persists and logs one input packet, returning the
// packet to forward (nil when the buffer-bloat guard dropped it).
func (r *Root) ingestCore(p transport.Proc, m PacketMsg) *packet.Packet {
	cfg := r.chain.cfg
	if cfg.RootLogLimit > 0 && r.log.Len() >= cfg.RootLogLimit {
		// Buffer-bloat guard (§5): drop at the root. The dropped packet's
		// ownership ends here — recycle it.
		r.Dropped++
		r.chain.arena.Put(m.Pkt)
		return nil
	}
	r.ctr++
	clock := packet.MakeClock(r.ID, r.ctr)
	class := r.chain.ClassOf(m.Pkt)
	m.Pkt.Meta.Clock = clock
	m.Pkt.Meta.BitVec = 0
	m.Pkt.Meta.Class = class
	m.Pkt.IngressNs = int64(p.Now())
	start := p.Now()

	// Clock persistence every n packets (§7.2): a blocking store write to
	// the shard owning the root clock key.
	if cfg.ClockPersistEvery > 0 && r.ctr%uint64(cfg.ClockPersistEvery) == 0 {
		key := store.Key{Vertex: rootVertexID, Obj: rootClockObj, Sub: uint64(r.ID)}
		req := &store.Request{Op: store.OpSet, Key: key, Arg: store.IntVal(int64(r.ctr))} //chc:allow specmutation -- root clock-persistence protocol (§7.2), framework-internal store access, not NF state
		r.chain.tr.Call(p, r.Endpoint, r.chain.pmap.ShardFor(key), req, 32, 10*time.Millisecond)
	}

	// Packet logging: root-local (fast) or in the datastore (survives
	// correlated root+NF failures; §7.2 compares both). In-store log
	// entries spread across shards with their clock-keyed partition.
	if cfg.LogInStore {
		key := store.Key{Vertex: rootVertexID, Obj: rootLogObj, Sub: clock}
		req := &store.Request{Op: store.OpSet, Key: key, Arg: store.IntVal(int64(m.Pkt.WireLen()))} //chc:allow specmutation -- root in-store packet-log protocol (§7.2), framework-internal store access, not NF state
		r.chain.tr.Call(p, r.Endpoint, r.chain.pmap.ShardFor(key), req, 64, 10*time.Millisecond)
	} else {
		// Root-local logging cost: modeled on the DES; negative disables the
		// sleep (live mode — the real log append IS the cost).
		cost := cfg.RootLogCost
		if cost == 0 {
			cost = localLogDelay
		}
		if cost > 0 {
			p.Sleep(cost)
		}
	}
	// Log a CLONE, not the forwarded packet: NFs that forward a packet
	// unmodified return the same object, and the per-hop BitVec XOR would
	// otherwise mutate the logged copy through the shared pointer — replay
	// would then resend packets with stale first-pass vector bits, leaving
	// their Fig 6 checks permanently unbalanced. The clone comes from the
	// arena (a recycled buffer when one is free) and is released back at
	// the delete verdict in tryDelete.
	cp := r.chain.arena.Get()
	*cp = *m.Pkt
	*r.log.Put(clock) = rootLogEntry{pkt: cp, class: class, sentAt: p.Now()}

	r.Injected++
	if int(class) < len(r.InjectedByClass) {
		r.InjectedByClass[class]++
	}
	r.procTime.Add(p.Now().Sub(start))
	return m.Pkt
}

func (r *Root) forward(p transport.Proc, pkt *packet.Packet, now transport.Time) {
	for _, tap := range r.offPathTaps {
		tap.Splitter.Route(r.Endpoint, pkt.Clone(), now)
	}
	if int(pkt.Meta.Class) < len(r.next) {
		if nxt := r.next[pkt.Meta.Class]; nxt != nil {
			nxt.Splitter.Route(r.Endpoint, pkt, now)
			return
		}
	}
	// No successor for this class: the packet's path ends at the root.
	r.chain.arena.Put(pkt)
}

// handleDelete runs Fig 6 step 4: match the final vector against the
// accumulated store commit signals before deleting the log entry.
func (r *Root) handleDelete(d Delete) {
	ent := r.log.Get(d.Clock)
	if ent == nil {
		return
	}
	ent.gotDelete = true
	ent.finalVec = d.Vec
	r.tryDelete(d.Clock, ent)
}

// handleCommit accumulates Fig 6 step-2 signals from the store. Commits
// from off-path instances are excluded: their XOR contributions travel on
// traffic COPIES that never reach the chain tail, so counting them would
// permanently unbalance the delete check for any packet an off-path NF
// updated state for. The same reasoning makes the check path-aware in a
// policy DAG: a commit from a vertex off the packet's class path can only
// come from stray or duplicated traffic (the class routing never sends the
// packet there), so it is excluded rather than XORed into the balance.
//
// A commit for a clock that is not logged is dropped. A clock is logged
// before its packet is forwarded and never logged twice, and a recovered
// root starts from an empty log without recycling clocks (RecoverRoot), so
// such a commit is late — its clock's delete check already passed, or the
// old root logged it — and no delete check will ever read it.
func (r *Root) handleCommit(m store.Commit) {
	if r.traceCommits != nil {
		r.traceCommits[m.Clock] = append(r.traceCommits[m.Clock], m)
	}
	ent := r.log.Get(m.Clock)
	if ent == nil {
		return
	}
	xorID := m.Instance
	if in := r.chain.instanceByID(m.Instance); in != nil {
		if in.vertex.Spec.OffPath || !in.vertex.OnClass(ent.class) {
			return
		}
		// Canonicalize the committing instance: a failover replacement or
		// clone signs its vectors with the instance it stands in for, so
		// its commits must accumulate under the same identity.
		xorID = in.xorID
	}
	ent.commitXor ^= fig6Term(xorID, m.Key.Obj)
	if ent.gotDelete {
		r.tryDelete(m.Clock, ent)
	}
}

func (r *Root) tryDelete(clock uint64, ent *rootLogEntry) {
	if r.chain.cfg.XORCheck && ent.finalVec^ent.commitXor != 0 {
		// Some update this packet induced has not committed: keep the
		// packet logged so it can be replayed (§5.4 non-blocking ops).
		return
	}
	// Delete zeroes the entry in place: take what is still needed first.
	pkt, class := ent.pkt, ent.class
	r.log.Delete(clock)
	// The logged copy's ownership ends with the delete verdict; recycle it.
	r.chain.arena.Put(pkt)
	r.Deleted++
	if int(class) < len(r.DeletedByClass) {
		r.DeletedByClass[class]++
	}
	r.prunes = append(r.prunes, clock)
}

// sendPrunes prunes the duplicate-suppression logs for the clocks deleted
// since the last call. Every shard may hold entries for a clock (a packet's
// updates can span shards), so each shard gets the whole list; the shards
// only read it, so they share one slice.
func (r *Root) sendPrunes() {
	if len(r.prunes) == 0 {
		return
	}
	clocks := r.pruneSlab.Cut(r.prunes...)
	r.prunes = r.prunes[:0]
	for _, s := range r.chain.Stores {
		r.chain.tr.Send(transport.Message{From: r.Endpoint, To: s.Name,
			Payload: store.PruneMsg{Clocks: clocks}, Size: 4 + 8*len(clocks)})
	}
}

// replay resends logged packets in clock order, marked as replay traffic
// destined for cloneID; the last carries the end-of-replay marker. In a
// policy DAG only the clone's branch is replayed: a logged packet whose
// class path never reaches the clone's vertex cannot rebuild any state the
// clone needs (it would only burn cycles on other branches before being
// duplicate-suppressed), so it stays logged but is not resent.
func (r *Root) replay(p transport.Proc, cloneID uint16) {
	clone := r.chain.instanceByID(cloneID)
	now := p.Now()
	r.log.Each(func(_ uint64, ent *rootLogEntry) {
		if clone != nil && !clone.vertex.OnClass(ent.class) {
			return
		}
		cp := ent.pkt.Clone()
		cp.Meta.Flags |= packet.MetaReplay
		cp.Meta.CloneID = cloneID
		if ent.gotDelete {
			// Output already reached the receiver; replay only to rebuild
			// state (suppressing tail output).
			cp.Meta.Flags |= packet.MetaNoOut
		}
		ent.sentAt = now
		r.Replayed++
		r.forward(p, cp, now)
	})
	// End-of-replay markers: dedicated control packets (Proto 0) that flow
	// through the chain BEHIND the replayed packets (FIFO links); each
	// splitter hands them to the clone directly, so the clone sees them
	// after all replay traffic regardless of flow partitioning. One marker
	// is sent PER CLASS routed through the clone's vertex — each trails
	// its own class's replay stream down its own branch, and the clone
	// drains only after the last arrives (a single marker could overtake
	// another class's replay traffic at a rejoin clone).
	sendMarker := func(class uint8) {
		marker := &packet.Packet{}
		marker.Meta.Flags = packet.MetaReplay | packet.MetaLastRp
		marker.Meta.CloneID = cloneID
		marker.Meta.Class = class
		r.forward(p, marker, now)
	}
	sent := false
	if clone != nil {
		for ci := range r.chain.classPaths {
			if clone.vertex.OnClass(uint8(ci)) {
				sendMarker(uint8(ci))
				sent = true
			}
		}
	}
	if !sent {
		cls := uint8(0)
		if clone != nil {
			cls = r.chain.classThrough(clone.vertex)
		}
		sendMarker(cls)
	}
}

// sweepRetransmit re-forwards logged packets with no delete progress for
// rootRetransmitAge (see SweepCmd). Retransmissions are replay-flagged so
// instances that did process the first copy re-execute it in emulation
// (duplicate-log results, no fresh side effects) instead of dropping the
// recovery stream, and entries whose delete already arrived re-run with
// output suppressed — they only need their Fig 6 commit balance rebuilt.
func (r *Root) sweepRetransmit(p transport.Proc) {
	now := p.Now()
	r.log.Each(func(_ uint64, ent *rootLogEntry) {
		if now.Sub(ent.sentAt) < rootRetransmitAge {
			return
		}
		cp := ent.pkt.Clone()
		cp.Meta.Flags |= packet.MetaReplay
		if ent.gotDelete {
			cp.Meta.Flags |= packet.MetaNoOut
		}
		ent.sentAt = now
		r.Replayed++
		r.forward(p, cp, now)
	})
}

// statsSnapshot builds a RootStats inside the root process.
func (r *Root) statsSnapshot() RootStats {
	return RootStats{
		Injected: r.Injected, Deleted: r.Deleted,
		Dropped: r.Dropped, Replayed: r.Replayed,
		Bursts:          r.Bursts,
		LogSize:         r.log.Len(),
		InjectedByClass: append([]uint64(nil), r.InjectedByClass...),
		DeletedByClass:  append([]uint64(nil), r.DeletedByClass...),
	}
}

// QueryRootStats fetches root statistics through the root's event loop,
// consistent even while traffic flows (live mode). ok is false when the
// root did not answer within timeout.
func (c *Chain) QueryRootStats(timeout time.Duration) (RootStats, bool) {
	sig := c.tr.NewSignal()
	var st RootStats
	var got bool
	c.tr.Spawn("stats-query", func(p transport.Proc) {
		res, ok := c.tr.Call(p, "stats-query", c.Root.Endpoint, RootStatsQuery{}, 16, timeout)
		if ok {
			st, got = res.(RootStats), true
		}
		sig.Resolve(nil)
	})
	if !c.tr.Drive(sig, timeout+50*time.Millisecond) {
		return RootStats{}, false
	}
	return st, got
}

// AwaitDrained polls the root until every in-flight packet has completed
// the Fig 6 delete protocol (log empty, injected == deleted) or the
// budget elapses. The budget is virtual time on the DES, real time live.
func (c *Chain) AwaitDrained(budget time.Duration) bool {
	const step = 20 * time.Millisecond
	for spent := time.Duration(0); ; spent += step {
		st, ok := c.QueryRootStats(step)
		if ok && st.LogSize == 0 && st.Injected == st.Deleted {
			return true
		}
		if spent > budget {
			return false
		}
		c.tr.RunFor(step)
	}
}

// Inject delivers an external packet to the root (workload drivers).
func (c *Chain) Inject(pkt *packet.Packet, at transport.Time) {
	c.tr.Send(transport.Message{
		From:    "driver",
		To:      c.Root.Endpoint,
		Payload: PacketMsg{Pkt: pkt, SentAt: at, InjectedAt: at},
		Size:    pkt.WireLen(),
	})
}

// RecoverRoot replaces a crashed root: the new root reads the persisted
// clock from the store and retrieves flow allocation from downstream
// instances (§5.4). Returns the new root and the recovery duration.
func (c *Chain) RecoverRoot() (newRoot *Root, took time.Duration) {
	old := c.Root
	old.Crash()
	nr := NewRoot(c, old.ID, old.Endpoint)
	nr.next = old.next
	nr.offPathTaps = old.offPathTaps
	nr.InjectedByClass = make([]uint64, len(old.InjectedByClass))
	nr.DeletedByClass = make([]uint64, len(old.DeletedByClass))

	done := c.tr.NewSignal()
	c.tr.Spawn("root-recovery", func(p transport.Proc) {
		start := p.Now()
		c.tr.Restart(old.Endpoint)
		// Read the last persisted clock from the shard owning it.
		key := store.Key{Vertex: rootVertexID, Obj: rootClockObj, Sub: uint64(old.ID)}
		req := &store.Request{Op: store.OpGet, Key: key} //chc:allow specmutation -- root recovery reads its own persisted clock (§7.3); framework protocol, not NF state
		res, ok := c.tr.Call(p, nr.Endpoint, c.pmap.ShardFor(key), req, 32, 10*time.Millisecond)
		last := uint64(0)
		if ok {
			if rep, k := res.(store.Reply); k && rep.OK {
				last = uint64(rep.Val.Int)
			}
		}
		// Restart at n + last so recycled clock values cannot collide with
		// clocks assigned but not yet persisted (§7.2 footnote).
		n := uint64(c.cfg.ClockPersistEvery)
		if n == 0 {
			n = 1
		}
		nr.ctr = last + n
		if nr.ctr <= old.ctr {
			// Clock persistence off (or stale): the persisted floor cannot
			// prevent clock recycling — and recycled clocks are corrupt
			// everywhere (instance/sink dedup sets, store prune tombstones
			// all treat them as already-finished packets). The paper makes
			// persistence a prerequisite of root recovery; when the model
			// runs without it, the simulator's knowledge of the crashed
			// root's counter stands in for that prerequisite. With
			// persistence on this branch is unreachable (last >= ctr-(n-1)).
			nr.ctr = old.ctr + 1
		}
		// Query flow allocation from one instance of each on-path vertex.
		for _, v := range c.OnPath() {
			for _, in := range c.topo.Load().slotsOf(v) {
				if in.isDead() {
					continue
				}
				c.tr.Call(p, nr.Endpoint, in.Endpoint, FlowTableQuery{}, 16, 10*time.Millisecond)
				break
			}
		}
		took = p.Now().Sub(start)
		nr.Start()
		done.Resolve(took)
	})
	if !c.tr.Drive(done, 50*time.Millisecond) {
		detail := ""
		if c.sim != nil {
			detail = fmt.Sprintf(" (live procs: %v)", c.sim.LiveProcs())
		}
		panic("root recovery did not complete" + detail)
	}
	c.Root = nr
	return nr, took
}
