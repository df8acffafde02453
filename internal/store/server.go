package store

import (
	"sort"
	"sync"
	"time"

	"chc/internal/clockset"
	"chc/internal/transport"
)

// Protocol messages exchanged between store servers, clients and the chain
// root. Blocking operations travel as simnet RPCs carrying *Request; the
// remaining one-way messages are below.

// AsyncOp is a non-blocking operation whose issuer does not wait for the
// reply (§4.3 model #3): the framework retransmits until ACKed. It travels
// inside an AsyncBatchMsg.
type AsyncOp struct {
	Req  *Request
	Seq  uint64
	From string // client endpoint for the ACK
}

// AckMsg acknowledges AsyncOps by sequence number: every op of one
// AsyncBatchMsg the server applied (or had applied before), in one message.
// Retransmission stays per op: an op missing from the list is re-offered.
type AckMsg struct{ Seqs []uint64 }

// AsyncBatchMsg is the one message async ops travel in: the ops a client
// flush had for one shard (see Client.flushOut), on every substrate. The
// server applies the ops in slice order — the
// client's issue order for that shard, so WalPos accounting and checkpoint
// positions do not depend on how ops were grouped into messages. All ops of
// one message come from the same client (Ops[0].From).
type AsyncBatchMsg struct {
	Ops []AsyncOp
}

// CallbackMsg pushes a new value of a cached read-heavy object to a
// registered instance (Table 1 "caching w/ callbacks").
type CallbackMsg struct {
	Key Key
	Val Value
}

// OwnerMsg notifies a waiting instance that key ownership changed
// (Fig 4 step 6: state handover notification).
type OwnerMsg struct {
	Key   Key
	Owner uint16
}

// OwnerSeedMsg pre-binds a key's ownership to an instance on the
// framework's behalf (Fig 4 prelude). When a move starts, the splitter
// seeds the moving flow's per-flow keys with their CURRENT owner so the
// store can arbitrate the handover even if that owner has never contacted
// the store about the flow (its state still client-cached): the new
// instance's acquire then conflicts and waits for the release instead of
// overtaking packets still queued at the old instance.
type OwnerSeedMsg struct {
	Key      Key
	Instance uint16
}

// Commit is one Fig 6 step-2 signal: the update induced by packet Clock at
// Instance on Key has committed.
type Commit struct {
	Clock    uint64
	Instance uint16
	Key      Key
}

// CommitMsg carries commit signals from the store to the root: the commits
// one served message (an AsyncBatchMsg or a blocking call) raised, in
// apply order.
type CommitMsg struct{ Commits []Commit }

// PruneMsg tells the store packets finished chain processing: their
// duplicate-suppression log entries can be dropped (§5.3). The root sends
// one per shard per inbound message, listing every clock it deleted there.
//
// The modeled Size of each of these signals is a 4-byte count plus 16 bytes
// per commit or 8 per sequence number or clock, so a one-entry message is
// as large as the single-entry messages were (commit 20, ack 12, prune 12)
// and the DES schedule does not change.
type PruneMsg struct{ Clocks []uint64 }

// TruncateMsg tells clients what a checkpoint at shard Shard covered. Pos
// carries the exact per-instance WAL positions it covers (count of each
// client's entries for this shard); clients drop that WAL prefix. TS holds
// each instance's covered clock; clients drop logged reads of the shard's
// keys at or before it. TS is no WAL marker: one packet's ops can occupy
// several WAL positions when flush paths reorder them. Entries for other
// shards are unaffected.
type TruncateMsg struct {
	TS    map[uint16]uint64
	Pos   map[uint16]uint64
	Shard string
}

// ServerConfig tunes a simulated store server.
type ServerConfig struct {
	// OpService is the per-operation service time. The paper's store does
	// ~5.1M ops/s across 4 threads (§7.1), i.e. ~0.78µs per op per thread.
	// Zero (or negative) models no cost.
	OpService time.Duration
	// CheckpointEvery enables periodic checkpoints of every key (§5.4).
	// Zero disables checkpointing.
	CheckpointEvery time.Duration
	// CheckpointWriteCost models the durable-write latency of one
	// checkpoint: the window between begin and commit during which a crash
	// leaves a torn checkpoint. Zero commits atomically.
	CheckpointWriteCost time.Duration
	// RootEndpoint receives CommitMsg signals; empty disables them.
	RootEndpoint string
}

// DefaultServerConfig mirrors the paper's prototype datastore.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{OpService: 200 * time.Nanosecond}
}

// Server is a datastore instance: an Engine behind a transport endpoint,
// processing offloaded operations serially (one event-loop process,
// matching the paper's lock-free one-thread-per-object design).
type Server struct {
	Name   string
	net    transport.Transport
	engine *Engine
	cfg    ServerConfig

	// regMu guards the registries shared between the serving process and
	// the checkpointer process (live mode runs them concurrently).
	regMu sync.Mutex
	// callback registry: key -> instance -> client endpoint
	callbacks map[Key]map[uint16]string
	// ownership-change watchers: key -> instance -> client endpoint
	ownWatch map[Key]map[uint16]string
	// appliedSeqs dedups retransmitted async ops per client endpoint
	// (at-most-once execution even after the packet's duplicate-
	// suppression log entry was pruned by a root delete).
	appliedSeqs map[string]*clockset.Set
	// clients records every endpoint that has issued an op, so the
	// checkpointer's TruncateMsg fan-out reaches all WAL holders, not just
	// callback registrants.
	clients map[string]bool

	// applyMu makes (engine apply + position note) atomic against the
	// checkpointer's (snapshot + position capture): a checkpoint's Pos
	// vector must count exactly the ops its snapshot contains, or replay
	// after recovery would double- or under-apply the boundary ops. On the
	// DES the two procs never interleave mid-message anyway; live mode
	// needs the lock.
	applyMu sync.Mutex
	// pos tracks, per instance, the highest WAL position covered by ops
	// applied so far (clients stamp their per-shard WAL position on each
	// op; FIFO links make "applied op with WalPos=n" imply "first n WAL
	// entries delivered").
	pos map[uint16]uint64

	stable  *Stable
	proc    transport.Handle
	ckpProc transport.Handle
	locks   *lockTable // naive-baseline lock manager (lock.go)

	// The Fig 6 commits the message being served raises collect in
	// commits, and an AsyncBatchMsg's acks in acks; sendCommits ships them
	// before the message's reply or ack. The slabs cut the slices the
	// signals carry. Touched by the serving process only.
	commits    []Commit
	acks       []uint64
	commitSlab transport.Slab[Commit]
	seqSlab    transport.Slab[uint64]

	// stats
	OpsServed   uint64
	AsyncServed uint64
}

// NewServerWithEngine creates a server around an existing engine (store
// failover: the recovered engine from RecoverEngine becomes the new
// instance's state).
func NewServerWithEngine(net transport.Transport, name string, cfg ServerConfig, eng *Engine) *Server {
	s := &Server{
		Name:        name,
		net:         net,
		engine:      eng,
		cfg:         cfg,
		callbacks:   make(map[Key]map[uint16]string),
		ownWatch:    make(map[Key]map[uint16]string),
		appliedSeqs: make(map[string]*clockset.Set),
		clients:     make(map[string]bool),
		pos:         make(map[uint16]uint64),
		stable:      &Stable{},
	}
	eng.SetNowFn(func() int64 { return int64(net.Now()) })
	eng.SetHooks(Hooks{
		OnCommit:      s.onCommit,
		OnUpdate:      s.onUpdate,
		Listening:     s.hasCallback,
		OnOwnerChange: s.onOwnerChange,
	})
	return s
}

// NewServer creates a store server attached to endpoint name.
func NewServer(net transport.Transport, name string, cfg ServerConfig) *Server {
	return NewServerWithEngine(net, name, cfg, NewEngine(16))
}

// Engine exposes the underlying engine (recovery, tests).
func (s *Server) Engine() *Engine { return s.engine }

// StableState returns the crash-surviving checkpoint area.
func (s *Server) StableState() *Stable { return s.stable }

// AdoptStable hands an existing checkpoint area to this server (store
// failover: the replacement instance keeps writing into the crashed
// instance's durable storage instead of starting an empty one).
func (s *Server) AdoptStable(st *Stable) {
	if st != nil {
		s.stable = st
	}
}

// CheckpointStats reports the checkpoint area's counters (admin status).
func (s *Server) CheckpointStats() CheckpointStats { return s.stable.Stats() }

// Declare is ignored: a checkpoint snapshots every key, so the server
// needs no object declarations. The method stays only for callers that
// still make it.
func (s *Server) Declare(vertex uint16, decls []ObjDecl) {}

// RegisterCustom forwards to the engine.
func (s *Server) RegisterCustom(name string, fn CustomOp) { s.engine.RegisterCustom(name, fn) }

// Start spawns the server process (and checkpointer, if configured).
func (s *Server) Start() {
	s.proc = s.net.Spawn(s.Name, s.run)
	if s.cfg.CheckpointEvery > 0 {
		s.ckpProc = s.net.Spawn(s.Name+".ckpt", s.runCheckpointer)
	}
}

// Crash fail-stops the server: processes killed, endpoint down, in-memory
// engine state lost. The Stable checkpoint survives.
func (s *Server) Crash() {
	if s.proc != nil {
		s.net.Kill(s.proc)
	}
	if s.ckpProc != nil {
		s.net.Kill(s.ckpProc)
	}
	s.net.Crash(s.Name)
}

func (s *Server) run(p transport.Proc) {
	ep := s.net.Endpoint(s.Name)
	for {
		msg := ep.Recv(p)
		switch pl := msg.Payload.(type) {
		case transport.Call:
			switch inner := pl.Body().(type) {
			case LockGetReq:
				s.handleLockGet(p, pl, inner)
				continue
			case SetUnlockReq:
				s.handleSetUnlock(p, pl, inner)
				continue
			}
			req, ok := pl.Body().(*Request)
			if !ok {
				continue
			}
			p.Sleep(s.cfg.OpService)
			s.OpsServed++
			s.noteClient(pl.From())
			if req.RegisterCB {
				s.registerCallback(req.Key, req.Instance, pl.From())
			}
			if req.WatchOwner {
				s.registerOwnerWatch(req.Key, req.Instance, pl.From())
			}
			rep := s.apply(req)
			s.sendCommits()
			pl.Reply(rep, 16+rep.Val.wireSize())
		case AsyncBatchMsg:
			s.serveAsync(p, pl.Ops)
		case OwnerSeedMsg:
			p.Sleep(s.cfg.OpService)
			s.apply(&Request{Op: OpAssociate, Key: pl.Key, Instance: pl.Instance})
		case PruneMsg:
			for _, clock := range pl.Clocks {
				s.engine.PruneClock(clock)
			}
		}
	}
}

// serveAsync applies the non-blocking ops of one AsyncBatchMsg in slice
// order — the client's per-shard issue order, which keeps the WAL-order ==
// wire-order invariant that WalPos accounting and checkpoint positions rely
// on — with per-client sequence dedup and the conflict-stays-silent rule.
//
// The commits the message's ops raise go to the root as one CommitMsg,
// then every op applied now or before is acknowledged in one AckMsg. The
// message's modeled service time is charged before the first op is
// applied, so no blocking point falls between an applied op and its held
// signal.
func (s *Server) serveAsync(p transport.Proc, ops []AsyncOp) {
	if len(ops) == 0 {
		return // a malformed peer's empty batch: nothing to apply or ack
	}
	p.Sleep(time.Duration(len(ops)) * s.cfg.OpService)
	s.AsyncServed += uint64(len(ops))
	from := ops[0].From
	s.noteClient(from)
	seen := s.appliedSeqs[from]
	if seen == nil {
		seen = new(clockset.Set)
		s.appliedSeqs[from] = seen
	}
	for _, op := range ops {
		if !seen.Has(op.Seq) {
			rep := s.apply(op.Req)
			if rep.Conflict {
				// Transient ownership conflict: mid-handover, the new
				// instance can issue (or flush) ops for a flow whose
				// per-flow key the old instance still owns — with
				// multiple workers, packets behind the "first"-marked
				// one process while the acquire is still waiting for
				// the release. Absorbing-and-acking here would lose the
				// update forever (its clock's Fig 6 vector could never
				// balance); staying silent instead makes the client's
				// retransmission re-offer the op once the release has
				// landed, and appliedSeqs dedups the retries.
				continue
			}
			seen.Add(op.Seq)
		}
		s.acks = append(s.acks, op.Seq)
	}
	s.sendCommits()
	if n := len(s.acks); n > 0 {
		s.net.Send(transport.Message{From: s.Name, To: from, Payload: AckMsg{Seqs: s.seqSlab.Cut(s.acks...)}, Size: 4 + 8*n})
		s.acks = s.acks[:0]
	}
}

// sendCommits ships the commits the message being served raised as one
// CommitMsg to the root, ahead of the message's reply or ack.
func (s *Server) sendCommits() {
	if n := len(s.commits); n > 0 {
		s.net.Send(transport.Message{From: s.Name, To: s.cfg.RootEndpoint,
			Payload: CommitMsg{Commits: s.commitSlab.Cut(s.commits...)}, Size: 4 + 16*n})
		s.commits = s.commits[:0]
	}
}

func (s *Server) runCheckpointer(p transport.Proc) {
	for {
		p.Sleep(s.cfg.CheckpointEvery)
		s.checkpoint(p)
	}
}

// checkpoint snapshots every key + TS into stable storage as a
// content-addressed checkpoint, then tells clients to truncate their WALs.
// The durable write is two-phase: begin records the in-progress checkpoint,
// the (optional) write-cost sleep models the flush, commit makes it
// loadable — a crash inside the window leaves a torn entry that
// LatestVerified skips. The truncation horizon is the OLDEST retained
// checkpoint's TS, not this one's: retained WAL must keep covering the
// span back to every snapshot recovery could still fall back to.
func (s *Server) checkpoint(p transport.Proc) {
	// Snapshot and position vector must be captured atomically against
	// applies (applyMu): Pos asserts exactly which WAL prefix the snapshot
	// contains.
	s.applyMu.Lock()
	snap := s.engine.Snapshot()
	snap.Pos = make(map[uint16]uint64, len(s.pos))
	for inst, n := range s.pos {
		snap.Pos[inst] = n
	}
	s.applyMu.Unlock()
	data := EncodeSnapshot(snap)
	ck := &StoredCheckpoint{ID: Identify(data), Data: data, At: s.net.Now(), TS: snap.TS, Pos: snap.Pos}
	s.stable.begin(ck)
	if s.cfg.CheckpointWriteCost > 0 && p != nil {
		p.Sleep(s.cfg.CheckpointWriteCost)
	}
	s.stable.commit(ck)

	s.regMu.Lock()
	eps := make(map[string]bool)
	for ep := range s.clients {
		eps[ep] = true
	}
	for _, insts := range s.callbacks {
		for _, ep := range insts {
			eps[ep] = true
		}
	}
	s.regMu.Unlock()
	horizon := s.stable.truncationHorizon()
	if horizon == nil || len(horizon.TS) == 0 {
		return
	}
	// Sorted-keys idiom: the truncate fan-out order is scheduling input on
	// the DES, so it must not depend on map iteration order.
	sorted := make([]string, 0, len(eps))
	for ep := range eps {
		sorted = append(sorted, ep)
	}
	sort.Strings(sorted)
	msg := TruncateMsg{TS: horizon.TS, Pos: horizon.Pos, Shard: s.Name}
	for _, ep := range sorted {
		s.net.Send(transport.Message{From: s.Name, To: ep, Payload: msg, Size: 8 * (len(msg.TS) + len(msg.Pos) + 1)})
	}
}

// apply executes one op on the engine and, unless it hit an ownership
// conflict, notes its WAL position, atomically against a checkpoint
// capture (applyMu).
func (s *Server) apply(req *Request) Reply {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	rep := s.engine.Apply(req)
	if !rep.Conflict {
		s.notePos(req.Instance, req.WalPos)
	}
	return rep
}

// notePos records an applied op's WAL-position stamp. Positions only move
// forward: a retransmission carries its original (older) stamp and must
// not rewind the vector. Callers hold applyMu.
func (s *Server) notePos(inst uint16, wp uint64) {
	if inst == 0 || wp == 0 {
		return
	}
	if wp > s.pos[inst] {
		s.pos[inst] = wp
	}
}

// SeedPositions initializes the position vector of a replacement server:
// the recovered engine already covers each client's entire retained WAL
// (plus everything truncated before it), so the next checkpoint must claim
// at least that much. Without the seed, an op retransmitted across the
// failover would re-stamp an old position onto a fresh vector and a later
// checkpoint would under-claim, making recovery double-replay ops the
// checkpoint already contains.
func (s *Server) SeedPositions(pos map[uint16]uint64) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	for inst, n := range pos {
		s.notePos(inst, n)
	}
}

func (s *Server) noteClient(ep string) {
	s.regMu.Lock()
	s.clients[ep] = true
	s.regMu.Unlock()
}

func (s *Server) registerCallback(k Key, inst uint16, ep string) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	m := s.callbacks[k]
	if m == nil {
		m = make(map[uint16]string)
		s.callbacks[k] = m
	}
	m[inst] = ep
}

func (s *Server) registerOwnerWatch(k Key, inst uint16, ep string) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	m := s.ownWatch[k]
	if m == nil {
		m = make(map[uint16]string)
		s.ownWatch[k] = m
	}
	m[inst] = ep
}

// onCommit implements Fig 6 step 2: signal the root that the update induced
// by Clock committed, carrying instance‖object for the XOR check. The
// signal is held until the message that raised it is answered
// (sendCommits).
func (s *Server) onCommit(clock uint64, instance uint16, key Key) {
	if s.cfg.RootEndpoint != "" {
		s.commits = append(s.commits, Commit{Clock: clock, Instance: instance, Key: key})
	}
}

// hasCallback reports whether any instance registered for updates of key
// (Hooks.Listening). Registrations are never withdrawn, so a true answer
// still holds when onUpdate runs.
func (s *Server) hasCallback(key Key) bool {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return len(s.callbacks[key]) > 0
}

// onUpdate fans out new values of callback-registered (read-heavy) objects
// to every registered instance except the updater, which already receives
// the updated object in its op reply (§4.3).
func (s *Server) onUpdate(key Key, val Value, by uint16) {
	s.regMu.Lock()
	m, ok := s.callbacks[key]
	if !ok {
		s.regMu.Unlock()
		return
	}
	targets := sortedTargets(m)
	s.regMu.Unlock()
	for _, t := range targets {
		if t.inst == by {
			continue
		}
		s.net.Send(transport.Message{
			From: s.Name, To: t.ep,
			Payload: CallbackMsg{Key: key, Val: val.Copy()},
			Size:    16 + val.wireSize(),
		})
	}
}

// instTarget is one (instance, endpoint) notification target.
type instTarget struct {
	inst uint16
	ep   string
}

// sortedTargets snapshots a registration map in instance-ID order: the
// notification fan-out order is DES scheduling input, so it must not
// depend on map iteration order.
func sortedTargets(m map[uint16]string) []instTarget {
	out := make([]instTarget, 0, len(m))
	for inst, ep := range m {
		out = append(out, instTarget{inst, ep})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].inst < out[j].inst })
	return out
}

// onOwnerChange notifies handover watchers (Fig 4 step 6) and clears them.
func (s *Server) onOwnerChange(key Key, owner uint16) {
	s.regMu.Lock()
	m, ok := s.ownWatch[key]
	if !ok {
		s.regMu.Unlock()
		return
	}
	targets := sortedTargets(m)
	if owner == 0 {
		delete(s.ownWatch, key)
	}
	s.regMu.Unlock()
	for _, t := range targets {
		if t.inst == owner {
			continue // the new owner caused this change
		}
		s.net.Send(transport.Message{
			From: s.Name, To: t.ep,
			Payload: OwnerMsg{Key: key, Owner: owner},
			Size:    16,
		})
	}
}
