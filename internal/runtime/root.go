package runtime

import (
	"fmt"
	"slices"
	"time"

	"chc/internal/clockset"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// Clock persistence key: roots store their clock under vertex 0.
const (
	rootVertexID uint16 = 0
	rootClockObj uint16 = 1
	rootLogObj   uint16 = 2
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
	// Bursts counts ingest flushes (see Root.Bursts).
	Bursts                          uint64
	LogSize                         int
	InjectedByClass, DeletedByClass []uint64
}

// rootLogEntry is one in-flight packet (§5: "at any time, the root logs all
// packets that are being processed by one or more chain instances").
type rootLogEntry struct {
	pkt       *packet.Packet
	gotDelete bool
	// finalVecs are the distinct Fig 6 vectors this clock's deletes carried,
	// in arrival order; when all are taken a newer one replaces the last.
	// Two executions of one packet can sign different vectors: one a
	// failover replacement re-ran from the root's log can read other state
	// than the first pass read and update other objects. The delete check
	// passes when the commits balance any of them: that execution's
	// updates all committed, and its output left after its delete.
	finalVecs [4]uint32
	nVecs     uint8
	// commitXor accumulates the store's Fig 6 step-2 commit signals for this
	// clock; the delete check passes when it equals one of finalVecs. It
	// lives and dies with the entry, so a commit that arrives after the
	// delete has nowhere to land (see handleCommit).
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
	log      clockset.Table[rootLogEntry]
	proc     transport.Handle
	procTime *Series // "proc.root", resolved once
	// out is the root's forwarding buffer (root process only), toward the
	// chain's entry successors; msgs is the list each flush routes it into
	// and sends as one burst.
	out  fwdBuf
	msgs []transport.Message
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
	// Bursts counts the flushes of drained bursts that ingested at least
	// one packet, so one per packet on the DES.
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

// StuckClock is one clock still in the root log: the Fig 6 verdict it
// waits on, what the packet was, and the commit signals it got when the
// root was tracing them (tests set traceCommits; otherwise none).
type StuckClock struct {
	Clock     uint64         `json:"clock"`
	GotDelete bool           `json:"got_delete"`
	FinalVec  uint32         `json:"final_vec"`
	CommitXor uint32         `json:"commit_xor"`
	Proto     uint8          `json:"proto"`
	Flags     uint8          `json:"flags"`
	Commits   []store.Commit `json:"commits"`
}

// String is the one line form every report of a stuck clock uses.
func (s StuckClock) String() string {
	return fmt.Sprintf("clock=%d gotDelete=%v finalVec=%08x commitXor=%08x proto=%d flags=%02x commits=%v",
		s.Clock, s.GotDelete, s.FinalVec, s.CommitXor, s.Proto, s.Flags, s.Commits)
}

// StuckClocks returns the first limit clocks, in clock order, that the
// root log still holds. Read it after the run, once the root has stopped.
func (r *Root) StuckClocks(limit int) []StuckClock {
	var out []StuckClock
	r.log.Each(func(clk uint64, ent *rootLogEntry) {
		if len(out) < limit {
			out = append(out, StuckClock{Clock: clk, GotDelete: ent.gotDelete, FinalVec: ent.lastVec(),
				CommitXor: ent.commitXor, Proto: ent.pkt.Proto, Flags: ent.pkt.TCPFlags, Commits: r.traceCommits[clk]})
		}
	})
	return out
}

// run stamps, persists and logs each packet of a drained burst, then
// forwards the burst as one transport burst (flush).
func (r *Root) run(p transport.Proc) {
	ep := r.chain.tr.Endpoint(r.Endpoint)
	bs := r.chain.burstSize()
	ingested := false
	ingest := func(pkt *packet.Packet) {
		if r.ingestCore(p, pkt) {
			ingested = true
			r.forward(pkt)
		}
	}
	other := func(msg transport.Message) { r.dispatch(p, msg) }
	flush := func() {
		if ingested {
			r.Bursts++
			ingested = false
		}
		r.flush(p.Now())
	}
	for {
		drain(p, ep, bs, ingest, other, flush)
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
	case *store.CommitMsg:
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

// ingestCore stamps, persists and logs one input packet, reporting whether
// to forward it (false when the buffer-bloat guard dropped it).
func (r *Root) ingestCore(p transport.Proc, pkt *packet.Packet) bool {
	cfg := r.chain.cfg
	if cfg.RootLogLimit > 0 && r.log.Len() >= cfg.RootLogLimit {
		// Buffer-bloat guard (§5): drop at the root. The dropped packet's
		// ownership ends here — recycle it.
		r.Dropped++
		r.chain.arena.Put(pkt)
		return false
	}
	r.ctr++
	clock := packet.MakeClock(r.ID, r.ctr)
	class := r.chain.ClassOf(pkt)
	pkt.Meta.Clock = clock
	pkt.Meta.BitVec = 0
	pkt.Meta.Class = class
	pkt.IngressNs = int64(p.Now())
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
		req := &store.Request{Op: store.OpSet, Key: key, Arg: store.IntVal(int64(pkt.WireLen()))} //chc:allow specmutation -- root in-store packet-log protocol (§7.2), framework-internal store access, not NF state
		r.chain.tr.Call(p, r.Endpoint, r.chain.pmap.ShardFor(key), req, 64, 10*time.Millisecond)
	} else {
		// Root-local logging cost: modeled on the DES; zero on live,
		// where the real log append IS the cost.
		if cfg.RootLogCost > 0 {
			p.Sleep(cfg.RootLogCost)
		}
	}
	// Log a CLONE, not the forwarded packet: NFs that forward a packet
	// unmodified return the same object, and the per-hop BitVec XOR would
	// otherwise mutate the logged copy through the shared pointer — replay
	// would then resend packets with stale first-pass vector bits, leaving
	// their Fig 6 checks permanently unbalanced. The clone comes from the
	// arena (a recycled buffer when one is free) and is released back at
	// the delete verdict in tryDelete.
	*r.log.Put(clock) = rootLogEntry{pkt: r.chain.arena.Clone(pkt), class: class, sentAt: p.Now()}

	r.Injected++
	if int(class) < len(r.InjectedByClass) {
		r.InjectedByClass[class]++
	}
	r.procTime.Add(p.Now().Sub(start))
	return true
}

// forward queues one packet on the root's forwarding buffer: the taps'
// copies, then the packet for the first vertex of its class path. A
// packet whose class path is empty ends here.
func (r *Root) forward(pkt *packet.Packet) {
	if !r.out.forward(&r.chain.entry, r.chain.arena, pkt) {
		r.chain.arena.Put(pkt)
	}
}

// flush routes the forwarding buffer, one RouteBurst per successor vertex
// in first-use order, and sends the deliveries as one burst.
func (r *Root) flush(now transport.Time) {
	r.out.route(r.Endpoint, now, &r.msgs)
	sendBurst(r.chain.tr, &r.msgs)
}

// resend forwards one packet as a flush of its own (replay, retransmission,
// end-of-replay markers). It runs between drained bursts, when the buffer
// is empty.
func (r *Root) resend(pkt *packet.Packet, now transport.Time) {
	r.forward(pkt)
	r.flush(now)
}

// handleDelete runs Fig 6 step 4: match the final vector against the
// accumulated store commit signals before deleting the log entry.
func (r *Root) handleDelete(d Delete) {
	ent := r.log.Get(d.Clock)
	if ent == nil {
		return
	}
	ent.gotDelete = true
	ent.addVec(d.Vec)
	r.tryDelete(d.Clock, ent)
}

// addVec records a delete's vector unless the entry already holds it.
func (ent *rootLogEntry) addVec(v uint32) {
	if slices.Contains(ent.finalVecs[:ent.nVecs], v) {
		return
	}
	if int(ent.nVecs) == len(ent.finalVecs) {
		ent.finalVecs[ent.nVecs-1] = v
		return
	}
	ent.finalVecs[ent.nVecs] = v
	ent.nVecs++
}

// lastVec is the newest delete's vector, 0 before any delete.
func (ent *rootLogEntry) lastVec() uint32 {
	if ent.nVecs == 0 {
		return 0
	}
	return ent.finalVecs[ent.nVecs-1]
}

// balanced reports whether the commits balance one of the deletes' vectors.
func (ent *rootLogEntry) balanced() bool {
	return slices.Contains(ent.finalVecs[:ent.nVecs], ent.commitXor)
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
	if r.chain.cfg.XORCheck && !ent.balanced() {
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
	r.resendLogged(now, cloneID, func(ent *rootLogEntry) bool {
		return clone == nil || clone.vertex.OnClass(ent.class)
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
		r.resend(marker, now)
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
	r.resendLogged(now, 0, func(ent *rootLogEntry) bool {
		return now.Sub(ent.sentAt) >= rootRetransmitAge
	})
}

// resendLogged resends a replay-flagged copy of every logged packet sel
// selects, in clock order, stamped for cloneID (0: for no clone). A packet
// whose delete already arrived has had its output reach the receiver, so
// its copy only rebuilds state, with the tail output suppressed.
func (r *Root) resendLogged(now transport.Time, cloneID uint16, sel func(*rootLogEntry) bool) {
	r.log.Each(func(_ uint64, ent *rootLogEntry) {
		if !sel(ent) {
			return
		}
		cp := r.chain.arena.Clone(ent.pkt)
		cp.Meta.Flags |= packet.MetaReplay
		cp.Meta.CloneID = cloneID
		if ent.gotDelete {
			cp.Meta.Flags |= packet.MetaNoOut
		}
		ent.sentAt = now
		r.Replayed++
		r.resend(cp, now)
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

// Inject delivers an external packet to the root (workload drivers),
// stamped as sent at at.
func (c *Chain) Inject(pkt *packet.Packet, at transport.Time) {
	pkt.SentNs = int64(at)
	c.tr.Send(transport.Message{
		From:    "driver",
		To:      c.Root.Endpoint,
		Payload: pkt,
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
			if rep, k := res.(*store.Reply); k && rep.OK {
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
			t := c.topo.Load()
			for _, in := range t.slotsOf(v) {
				if t.dead[in.ID] {
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
