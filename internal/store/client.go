package store

import (
	"sort"
	"sync"
	"time"

	"chc/internal/transport"
)

// Mode selects the state-management model of §7.1, so the same NF code can
// run as a "traditional" NF or under the three externalization models.
type Mode struct {
	// Cache enables the Table 1 caching strategies (model #2, "EO+C").
	Cache bool
	// NoAckWait makes non-blocking operations return without waiting for the
	// store ACK; the client library retransmits on timeout (model #3, "+NA").
	NoAckWait bool
}

// Modes from Figure 8/10.
var (
	ModeEO    = Mode{}                             // externalized ops only
	ModeEOC   = Mode{Cache: true}                  // + caching
	ModeEOCNA = Mode{Cache: true, NoAckWait: true} // + no ACK wait
)

// ClientConfig configures a client-side datastore library instance (§6:
// "NFs are implemented using our CHC library that provides ... client side
// datastore handling, retransmissions of un-ACK'd state updates").
type ClientConfig struct {
	Vertex   uint16
	Instance uint16
	Endpoint string // this NF instance's endpoint (for callbacks/ACKs)
	Store    string // store server endpoint (single-shard deployments)
	// Shards lists the datastore tier's shard endpoints; the client routes
	// each operation to the shard owning its key (consistent-hash partition
	// map, distributed by the root at deployment time). Empty falls back to
	// the single endpoint in Store.
	Shards []string
	Mode   Mode
	Decls  []ObjDecl
	// RPCTimeout bounds blocking store calls.
	RPCTimeout time.Duration
	// AckTimeout triggers retransmission of un-ACK'd async ops.
	AckTimeout time.Duration
	// FlushEvery drives periodic non-blocking flush of cached per-flow
	// objects (Table 1). Zero keeps flush purely event-driven (handover).
	FlushEvery time.Duration
	// CoalesceWindow bounds how long a non-blocking increment may sit in
	// the client-side coalescing buffer before being flushed to the store
	// (+NA mode only). Zero selects the default; negative disables
	// coalescing.
	CoalesceWindow time.Duration
	// CoalesceMax caps how many increments merge into one batched request.
	// Zero selects the default.
	CoalesceMax int
	// BurstRPC enables burst-scoped RPC batching: async ops buffer per
	// shard and flush as one AsyncBatchMsg per shard when the instance
	// finishes its packet burst (Client.FlushBurst), when a blocking call
	// needs the wire ordering, or when the safety window elapses. Per-op
	// acks, retransmission, WalPos stamping and checkpoint positions are
	// unchanged — only the message count drops. The runtime enables this
	// on the live substrate only; the DES never sets it, so the golden
	// message schedules are untouched.
	BurstRPC bool
}

// Coalescing defaults: a window two-ish store RTTs wide keeps batching
// invisible next to the ACK timeout, and the cap bounds replay divergence
// per batch.
const (
	defaultCoalesceWindow = 20 * time.Microsecond
	defaultCoalesceMax    = 32
)

// acquirePoll is the handover-acquire retry interval: a few store RTTs, so
// a conflicted acquire notices the old instance's release promptly without
// depending on the push notification being pumped.
const acquirePoll = 100 * time.Microsecond

// WalOp is one entry of the client-side write-ahead log of shared-state
// update operations (§5.4).
type WalOp struct {
	Clock uint64
	Req   Request
}

// ReadRecord logs a shared-state read: the value returned and the TS vector
// the store attached (§5.4 Case 2).
type ReadRecord struct {
	Key   Key
	Val   Value
	TS    map[uint16]uint64
	Clock uint64
}

type cacheEntry struct {
	val        Value
	valid      bool
	exclusive  bool      // split-aware objects: may cache while exclusive
	exclSet    bool      // exclusive was set per-sub (overrides the per-obj default)
	pending    []Request // locally applied, unflushed ops (per-flow cache)
	dirty      bool      // key is on Client.dirty (see markDirty)
	registered bool      // update callback registered with the store
}

// Client is the per-instance datastore library. Its blocking methods must
// be called from one of the owning NF instance's processes; HandleMessage
// must be invoked by the instance's event loop for store-pushed messages.
// The client is safe for concurrent use by the instance's worker processes
// (live execution mode): mu guards all mutable state and is released
// around blocking network waits. On the single-threaded DES the mutex is
// always uncontended and changes nothing.
type Client struct {
	cfg ClientConfig
	net transport.Transport

	// mu guards every mutable field below (cache, pending, coalescing
	// buffers, WAL, read log, ownership waits, stats).
	mu    sync.Mutex
	pmap  *PartitionMap
	decls map[uint16]ObjDecl
	// declList holds the declarations sorted by object ID: protocol loops
	// that walk every declared object (flow acquire/release) iterate this
	// slice, not the map, so their RPC order is deterministic.
	declList []ObjDecl
	cache    map[Key]*cacheEntry
	// dirty lists the keys whose entries may hold unflushed ops, so the
	// periodic flush costs in proportion to ops issued, not entries held.
	// Invariant: an entry in cache with len(pending) > 0 has its key here.
	// The converse does not hold (FlushObject, ReleaseFlow and SetExclusive
	// empty an entry without unlisting it); flushDirty skips those.
	dirty []Key

	// Async-op retransmission state.
	seq     uint64
	pending map[uint64]AsyncOp

	// Op coalescing: unsent merged non-blocking increments, keyed by
	// (key, field). coOrder preserves issue order for deterministic
	// flushing (map iteration order would perturb the DES).
	co          map[coKey]*Request
	coOrder     []coKey
	coTimer     bool
	coalesceOff bool

	// Burst-scoped RPC batching (BurstRPC mode): async ops buffered per
	// shard in issue order, flushed as one AsyncBatchMsg per shard.
	burst      map[string][]AsyncOp
	burstOrder []string
	burstTimer bool

	// Recovery metadata. walCount counts WAL entries ever logged per
	// shard (the position piggybacked on outgoing ops); walDropped counts
	// entries already truncated per shard, so absolute positions in
	// checkpoints map onto the retained WAL.
	wal        walLog
	walCount   map[string]uint64
	walDropped map[string]uint64
	readLog    []ReadRecord
	flushProc  transport.Handle

	// Handover waits: per-flow keys whose release we are waiting on.
	ownerWait map[Key]transport.Signal

	// Per-object exclusivity defaults (set by the framework from the
	// upstream splitter's partitioning); per-sub cache entries override.
	objExcl map[uint16]bool

	// shutdown stops retransmissions after the instance crashes.
	shutdown bool

	// Stats for the experiment harness.
	BlockingOps uint64
	AsyncOps    uint64
	CacheHits   uint64
	CacheMisses uint64
	Retransmits uint64
	FlushedOps  uint64
	// CoalescedOps counts non-blocking increments absorbed into an
	// already-buffered batch (ops that never became their own wire
	// message); BatchedSends counts batched requests actually sent.
	CoalescedOps uint64
	BatchedSends uint64
	// BurstRPCs counts AsyncBatchMsg wire messages sent (BurstRPC mode):
	// each one replaced len(Ops) individual sends.
	BurstRPCs uint64
}

// coKey identifies one coalescible op stream: a key plus the map field
// (empty for plain counters).
type coKey struct {
	k     Key
	field string
}

// NewClient builds a client library instance.
func NewClient(net transport.Transport, cfg ClientConfig) *Client {
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 10 * time.Millisecond
	}
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = 1 * time.Millisecond
	}
	coalesceOff := cfg.CoalesceWindow < 0
	if cfg.CoalesceWindow <= 0 {
		cfg.CoalesceWindow = defaultCoalesceWindow
	}
	if cfg.CoalesceMax <= 0 {
		cfg.CoalesceMax = defaultCoalesceMax
	}
	shards := cfg.Shards
	if len(shards) == 0 {
		shards = []string{cfg.Store}
	}
	c := &Client{
		cfg:         cfg,
		pmap:        NewPartitionMap(shards),
		net:         net,
		decls:       make(map[uint16]ObjDecl),
		cache:       make(map[Key]*cacheEntry),
		pending:     make(map[uint64]AsyncOp),
		walCount:    make(map[string]uint64),
		walDropped:  make(map[string]uint64),
		co:          make(map[coKey]*Request),
		coalesceOff: coalesceOff,
		burst:       make(map[string][]AsyncOp),
		ownerWait:   make(map[Key]transport.Signal),
		objExcl:     make(map[uint16]bool),
	}
	for _, d := range cfg.Decls {
		c.decls[d.ID] = d
	}
	for _, d := range c.decls {
		c.declList = append(c.declList, d)
	}
	sort.Slice(c.declList, func(i, j int) bool { return c.declList[i].ID < c.declList[j].ID })
	return c
}

// Config returns the client configuration.
func (c *Client) Config() ClientConfig { return c.cfg }

// WAL returns a copy of the client-side write-ahead log (store recovery
// input).
func (c *Client) WAL() []WalOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.flat()
}

// WALDropped returns, per shard, how many of this client's WAL entries
// checkpoints have already truncated: positions stamped in checkpoints are
// absolute counts, and recovery subtracts this base to index the retained
// WAL.
func (c *Client) WALDropped() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.walDropped))
	for s, n := range c.walDropped {
		out[s] = n
	}
	return out
}

// PendingAcks reports async operations not yet acknowledged.
func (c *Client) PendingAcks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Shutdown stops retransmission of outstanding async ops and drops unsent
// coalesced batches (instance crash: a dead NF cannot keep retrying; replay
// regenerates anything lost).
func (c *Client) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shutdown = true
	c.pending = make(map[uint64]AsyncOp)
	c.co = make(map[coKey]*Request)
	c.coOrder = c.coOrder[:0]
	c.burst = make(map[string][]AsyncOp)
	c.burstOrder = nil
}

// ReadLog returns a copy of the logged shared reads with their TS vectors.
func (c *Client) ReadLog() []ReadRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ReadRecord(nil), c.readLog...)
}

// StartFlusher spawns the periodic cache flusher if configured.
func (c *Client) StartFlusher() {
	if c.cfg.FlushEvery <= 0 {
		return
	}
	c.flushProc = c.net.Spawn(c.cfg.Endpoint+".flush", func(p transport.Proc) {
		for {
			p.Sleep(c.cfg.FlushEvery)
			c.FlushAll()
		}
	})
}

// StopFlusher kills the flusher (instance crash).
func (c *Client) StopFlusher() {
	if c.flushProc != nil {
		c.net.Kill(c.flushProc)
	}
}

func (c *Client) key(obj uint16, sub uint64) Key {
	return Key{Vertex: c.cfg.Vertex, Obj: obj, Sub: sub}
}

func (c *Client) decl(obj uint16) ObjDecl {
	if d, ok := c.decls[obj]; ok {
		return d
	}
	return ObjDecl{ID: obj, Scope: ScopeGlobal, Pattern: WriteReadOften}
}

func (c *Client) entry(k Key) *cacheEntry {
	e, ok := c.cache[k]
	if !ok {
		e = &cacheEntry{}
		c.cache[k] = e
	}
	return e
}

// cacheable reports whether ops on k may be absorbed by the local cache
// under the current mode, strategy and exclusivity (Table 1).
func (c *Client) cacheable(d ObjDecl, e *cacheEntry) bool {
	if !c.cfg.Mode.Cache {
		return false
	}
	switch StrategyFor(d) {
	case StratCachePerFlow:
		return true
	case StratSplitAware:
		if e.exclSet {
			return e.exclusive
		}
		return c.objExcl[d.ID]
	default:
		return false
	}
}

// SetObjExclusive marks ALL subs of a split-aware object as exclusively
// accessed by this instance (per-sub SetExclusive overrides). The framework
// derives this from the splitter's partitioning scope. Losing object-level
// exclusivity flushes every cached sub of the object.
func (c *Client) SetObjExclusive(obj uint16, exclusive bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	was := c.objExcl[obj]
	c.objExcl[obj] = exclusive
	if was && !exclusive {
		covered := func(k Key, e *cacheEntry) bool { return k.Obj == obj && !e.exclSet }
		c.flushDirty(covered)
		// Clean entries go stale too once another instance may write the
		// object. Invalidating sends nothing, so map order is harmless here.
		for k, e := range c.cache {
			if covered(k, e) {
				e.valid = false
			}
		}
	}
}

// markDirty puts k on the dirty list the first time e's pending goes
// non-empty; e.dirty keeps it there once until flushDirty takes it off.
func (c *Client) markDirty(k Key, e *cacheEntry) {
	if !e.dirty {
		e.dirty = true
		c.dirty = append(c.dirty, k)
	}
}

// flushDirty flushes the pending ops of every listed entry sel selects
// (nil selects all) and returns how many ops it sent. The list is sorted
// with Key.Less first: flushing emits async ops, and the DES message
// schedule must depend neither on map iteration order nor on which key an
// NF happened to dirty first. Entries sel rejects stay listed.
func (c *Client) flushDirty(sel func(Key, *cacheEntry) bool) int {
	if len(c.dirty) == 0 {
		return 0
	}
	sort.Slice(c.dirty, func(i, j int) bool { return c.dirty[i].Less(c.dirty[j]) })
	n := 0
	kept := c.dirty[:0]
	for _, k := range c.dirty {
		e := c.cache[k]
		if e == nil {
			continue // InvalidateAll raced an Update that was fetching the value
		}
		if len(e.pending) > 0 && sel != nil && !sel(k, e) {
			kept = append(kept, k)
			continue
		}
		e.dirty = false
		n += c.flushEntry(k, e)
	}
	c.dirty = kept
	return n
}

// SetExclusive marks a split-aware object (obj,sub) as exclusively accessed
// by this instance (or not). The framework calls this when the upstream
// splitter's partitioning changes (§4.3: "CHC notifies the client-side
// library when to cache or flush the state"). Losing exclusivity flushes.
func (c *Client) SetExclusive(obj uint16, sub uint64, exclusive bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.key(obj, sub)
	e := c.entry(k)
	wasExcl := e.exclusive
	if !e.exclSet {
		wasExcl = c.objExcl[obj]
	}
	if wasExcl && !exclusive {
		c.flushEntry(k, e)
		e.valid = false
	}
	e.exclusive = exclusive
	e.exclSet = true
}

// shardFor names the shard server owning k.
func (c *Client) shardFor(k Key) string { return c.pmap.ShardFor(k) }

// Partition exposes the client's view of the shard map (recovery, tests).
func (c *Client) Partition() *PartitionMap { return c.pmap }

// call performs a blocking RPC to the key's shard. Buffered coalesced
// batches flush first (FIFO links): a blocking op must observe every
// increment the NF issued before it. call expects c.mu held and releases
// it around the network wait.
func (c *Client) call(p transport.Proc, req *Request) (Reply, bool) {
	c.flushCoalesced()
	// Burst buffers flush next (flushCoalesced feeds them in burst mode):
	// FIFO links then guarantee the blocking op arrives after every async
	// op issued before it.
	c.flushBurst()
	c.BlockingOps++
	to := c.shardFor(req.Key)
	// The deferred re-lock (instead of a plain Lock after the call) keeps
	// the mutex balanced when a killed live process unwinds out of the
	// network wait: the kill panic must leave c.mu held for the caller's
	// own deferred Unlock.
	c.mu.Unlock()
	defer c.mu.Lock()
	res, ok := c.net.Call(p, c.cfg.Endpoint, to, req, req.wireSize(), c.cfg.RPCTimeout)
	if !ok {
		return Reply{}, false
	}
	return res.(Reply), true
}

// async issues a fire-and-forget op with framework retransmission (§4.3:
// "NFs do not even wait for the ACK ... the framework handles operation
// retransmission if an ACK is not received before a timeout").
func (c *Client) async(req *Request) {
	c.stampWalPos(req)
	c.AsyncOps++
	c.seq++
	op := AsyncOp{Req: req, Seq: c.seq, From: c.cfg.Endpoint}
	c.pending[op.Seq] = op
	if c.cfg.BurstRPC && !c.shutdown {
		// Burst mode: buffer per shard instead of sending now. Everything
		// else — WAL position, pending entry, seq — is already recorded, so
		// the op's recovery semantics are fixed before it reaches the wire.
		shard := c.shardFor(req.Key)
		if _, ok := c.burst[shard]; !ok {
			c.burstOrder = append(c.burstOrder, shard)
		}
		c.burst[shard] = append(c.burst[shard], op)
		c.armBurstTimer()
		return
	}
	c.sendAsync(op)
}

// flushBurst sends every buffered burst batch, one AsyncBatchMsg per
// shard in first-buffered order. Within a shard, ops keep issue order, so
// the server applying the slice in order preserves wire-order == WAL-order.
// Expects c.mu held.
func (c *Client) flushBurst() {
	if len(c.burstOrder) == 0 {
		return
	}
	order := c.burstOrder
	c.burstOrder = nil
	for _, shard := range order {
		ops := c.burst[shard]
		delete(c.burst, shard)
		if len(ops) == 0 {
			continue
		}
		if len(ops) == 1 {
			c.sendAsync(ops[0])
			continue
		}
		c.sendBatch(shard, ops)
	}
}

// FlushBurst drains the burst buffers; the runtime calls it when an
// instance finishes its packet burst.
func (c *Client) FlushBurst() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushBurst()
}

// sendBatch ships one shard's buffered ops as a single wire message. Acks
// stay per-op: the retransmit timer re-offers whichever ops are still
// pending individually, so a lost batch degrades to the ordinary
// retransmission path rather than inventing batch-level ack state.
func (c *Client) sendBatch(shard string, ops []AsyncOp) {
	size := 0
	for _, op := range ops {
		size += op.Req.wireSize()
	}
	c.net.Send(transport.Message{
		From: c.cfg.Endpoint, To: shard,
		Payload: AsyncBatchMsg{Ops: ops},
		Size:    size,
	})
	c.BurstRPCs++
	// ops now belongs to the message just sent and is never appended to
	// again (flushBurst unhooked it from c.burst), so the retransmit timer
	// can read the seqs out of it.
	c.net.Schedule(c.cfg.AckTimeout, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.shutdown {
			return
		}
		for _, op := range ops {
			if p, ok := c.pending[op.Seq]; ok {
				c.Retransmits++
				c.sendAsync(p)
			}
		}
	})
}

// armBurstTimer schedules the safety flush: a burst buffer must never
// outlive the coalescing window, or an idle instance would sit on
// unacked-but-unsent ops until the next packet arrives.
func (c *Client) armBurstTimer() {
	if c.burstTimer {
		return
	}
	c.burstTimer = true
	c.net.Schedule(c.cfg.CoalesceWindow, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.burstTimer = false
		if c.shutdown {
			return
		}
		c.flushBurst()
	})
}

// BurstPending reports buffered (unsent) burst ops; scale-in quiescence
// checks this alongside PendingAcks.
func (c *Client) BurstPending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ops := range c.burst {
		n += len(ops)
	}
	return n
}

func (c *Client) sendAsync(op AsyncOp) {
	c.net.Send(transport.Message{
		From: c.cfg.Endpoint, To: c.shardFor(op.Req.Key), Payload: op,
		Size: op.Req.wireSize(),
	})
	seq := op.Seq
	c.net.Schedule(c.cfg.AckTimeout, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.shutdown {
			return
		}
		if p, ok := c.pending[seq]; ok {
			c.Retransmits++
			c.sendAsync(p)
		}
	})
}

// HandleMessage dispatches store-pushed messages (ACKs, callbacks, owner
// notifications, WAL truncation). The NF instance event loop calls this for
// any inbox payload the framework itself does not consume. It reports
// whether the message was a store-protocol message.
func (c *Client) HandleMessage(payload any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m := payload.(type) {
	case AckMsg:
		delete(c.pending, m.Seq)
		return true
	case CallbackMsg:
		// Read-heavy cache refresh pushed by the store.
		e := c.entry(m.Key)
		e.val = m.Val
		e.valid = true
		return true
	case OwnerMsg:
		if w, ok := c.ownerWait[m.Key]; ok && m.Owner == 0 {
			delete(c.ownerWait, m.Key)
			w.Resolve(nil)
		}
		return true
	case TruncateMsg:
		c.truncate(m.Shard, m.TS, m.Pos)
		return true
	}
	return false
}

// truncate drops the WAL prefix covered by one shard's checkpoint.
// Preferred marker is the positional vector pos: the checkpoint covers the
// first pos[instance] of this client's ops OWNED BY THAT SHARD (in issue
// order), counted from the client's birth; c.walDropped maps that absolute
// count onto the retained log. When the message carries no positions
// (older peers, hand-built tests), the TS clock's last occurrence is used
// instead — correct only when clocks are unique per instance WAL. Entries
// for other shards are never touched — their checkpoints cover them
// separately. An empty shard name (single-server tier, tests) covers every
// key.
func (c *Client) truncate(shard string, ts, pos map[uint16]uint64) {
	owns := func(k Key) bool { return shard == "" || c.shardFor(k) == shard }
	upto := ts[c.cfg.Instance]
	if len(pos) > 0 {
		covered := pos[c.cfg.Instance]
		drop := int64(covered) - int64(c.walDropped[shard])
		if drop > 0 {
			c.walDropped[shard] += uint64(c.wal.filter(func(_ int, w *WalOp) bool {
				if drop == 0 || !owns(w.Req.Key) {
					return false
				}
				drop--
				return true
			}))
		}
	} else if upto != 0 {
		cut := -1
		c.wal.each(func(i int, w *WalOp) {
			if owns(w.Req.Key) && w.Clock == upto {
				cut = i
			}
		})
		if cut >= 0 {
			c.walDropped[shard] += uint64(c.wal.filter(func(i int, w *WalOp) bool {
				return i <= cut && owns(w.Req.Key)
			}))
		}
	}
	if upto == 0 {
		return
	}
	// Reads of this shard's keys issued at or before the covered clock can
	// no longer win the TS selection against the checkpoint; drop them
	// (over-retention is safe, so the comparison errs toward keeping).
	keptR := c.readLog[:0]
	for _, r := range c.readLog {
		if owns(r.Key) && r.Clock <= upto {
			continue
		}
		keptR = append(keptR, r)
	}
	c.readLog = keptR
}

// logWal appends a shared-state mutation to the client WAL and advances
// the target shard's WAL position counter.
func (c *Client) logWal(req Request) {
	if req.Clock == 0 {
		return
	}
	c.wal.append(WalOp{Clock: req.Clock, Req: req})
	c.walCount[c.shardFor(req.Key)]++
}

// stampWalPos records the current WAL position of the request's shard on
// the request, so the store learns exactly how much of this client's WAL
// stream the op's arrival covers (FIFO links: every earlier entry has
// been delivered by then). Must run after the op — and, for batches,
// every absorbed entry — has been WAL-logged.
func (c *Client) stampWalPos(req *Request) {
	req.WalPos = c.walCount[c.shardFor(req.Key)]
}

// --- State operations used by NF code ---------------------------------------

// Get reads object (obj,sub). Per Table 1 it serves from cache when
// permitted; read-heavy objects register a store callback on first read.
func (c *Client) Get(p transport.Proc, obj uint16, sub uint64, clock uint64) (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.decl(obj)
	k := c.key(obj, sub)
	e := c.entry(k)
	strat := StrategyFor(d)
	if c.cfg.Mode.Cache && e.valid &&
		(strat == StratCacheCallback || c.cacheable(d, e)) {
		c.CacheHits++
		return e.val, !e.val.IsNil()
	}
	c.CacheMisses++
	req := &Request{Op: OpGet, Key: k, Clock: clock, Instance: c.cfg.Instance}
	if d.Scope != ScopeFlow {
		req.WantTS = true
	}
	if c.cfg.Mode.Cache && strat == StratCacheCallback && !e.registered {
		req.RegisterCB = true
	}
	rep, ok := c.call(p, req)
	if !ok {
		return Value{}, false
	}
	if req.RegisterCB {
		e.registered = true
	}
	if rep.OK && c.cfg.Mode.Cache && (strat == StratCacheCallback || c.cacheable(d, e)) {
		e.val = rep.Val
		e.valid = true
	}
	if d.Scope != ScopeFlow && rep.TS != nil {
		c.readLog = append(c.readLog, ReadRecord{Key: k, Val: rep.Val.Copy(), TS: rep.TS, Clock: clock})
	}
	return rep.Val, rep.OK
}

// Update issues a mutating op with the routing dictated by the object's
// strategy and the client mode. Result-needed ops (pop, min-incr, CAS,
// custom with result) must use UpdateBlocking instead.
func (c *Client) Update(p transport.Proc, req Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.decl(req.Key.Obj)
	e := c.entry(req.Key)
	req.Instance = c.cfg.Instance
	if c.cacheable(d, e) {
		// Absorb locally; flushed later as operations (not values), so the
		// store's duplicate suppression still sees packet clocks.
		c.ensureCached(p, e, &req)
		c.applyLocal(e, &req)
		e.pending = append(e.pending, req)
		c.markDirty(req.Key, e)
		return
	}
	if c.cfg.Mode.NoAckWait && c.tryCoalesce(&req) {
		return // WAL-logged at flush time, in send order
	}
	// Non-coalescible op: flush buffered batches first so the wire (and
	// the WAL, whose order mirrors it) sees this client's ops in a
	// consistent send order.
	c.flushCoalesced()
	c.logWal(req)
	if c.cfg.Mode.NoAckWait {
		r := req
		c.async(&r)
		return
	}
	// Non-blocking op, but wait for the ACK (models #1/#2): one RTT, no
	// lock contention since the store serializes (§4.3).
	r := req
	c.stampWalPos(&r)
	rep, ok := c.call(p, &r)
	if ok && rep.OK && c.cfg.Mode.Cache && StrategyFor(d) == StratCacheCallback {
		// The updater receives the updated object in its reply (§4.3).
		e.val = rep.Val
		e.valid = true
	}
}

// UpdateBlocking issues a mutating op and returns its result (port pops,
// least-loaded picks, CAS outcomes, non-deterministic values).
func (c *Client) UpdateBlocking(p transport.Proc, req Request) (Reply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.decl(req.Key.Obj)
	e := c.entry(req.Key)
	req.Instance = c.cfg.Instance
	// Custom and non-deterministic ops always execute at the store (the
	// client library cannot evaluate them); everything else may be absorbed
	// by a cache the strategy permits.
	if c.cacheable(d, e) && req.Op != OpNonDet && req.Op != OpCustom {
		c.ensureCached(p, e, &req)
		rep := ApplyToValue(&e.val, &req)
		e.valid = true
		e.pending = append(e.pending, req)
		c.markDirty(req.Key, e)
		return rep, true
	}
	// Flush before logging so WAL order matches send order (the ts
	// position markers store recovery relies on assume it does).
	c.flushCoalesced()
	c.logWal(req)
	c.stampWalPos(&req)
	rep, ok := c.call(p, &req)
	if ok && rep.OK && c.cfg.Mode.Cache && StrategyFor(d) == StratCacheCallback {
		e.val = rep.Val
		e.valid = true
	}
	return rep, ok
}

// --- Op coalescing -----------------------------------------------------------

// tryCoalesce absorbs a non-blocking increment into the per-key batch
// buffer (§4.3 model #3 fast path: the NF already does not wait for these
// ops, so consecutive increments on one key can merge into a single wire
// message). Returns true when the op was buffered; it is sent — merged —
// by the next flush trigger: the window timer, the batch cap, an
// intervening blocking or non-coalescible op, or FlushAll.
func (c *Client) tryCoalesce(req *Request) bool {
	if c.coalesceOff || (req.Op != OpIncr && req.Op != OpMapIncr) {
		return false
	}
	ck := coKey{k: req.Key, field: req.Field}
	if head, ok := c.co[ck]; ok {
		if head.Op == req.Op && 1+len(head.Batch) < c.cfg.CoalesceMax {
			head.Batch = append(head.Batch, BatchEntry{Clock: req.Clock, Delta: req.Arg.Int})
			c.CoalescedOps++
			return true
		}
		// Batch full, or a different op kind on the same stream (Incr vs
		// MapIncr): keep per-key issue order by flushing the old batch, then
		// start a fresh head below.
		c.flushCoalescedKey(ck)
	}
	r := *req
	c.co[ck] = &r
	c.coOrder = append(c.coOrder, ck)
	c.armCoalesceTimer()
	return true
}

// armCoalesceTimer schedules the window flush for the oldest buffered op.
func (c *Client) armCoalesceTimer() {
	if c.coTimer {
		return
	}
	c.coTimer = true
	c.net.Schedule(c.cfg.CoalesceWindow, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.coTimer = false
		if c.shutdown {
			return
		}
		c.flushCoalesced()
	})
}

// FlushCoalesced sends every buffered batch, ordered by each batch's
// oldest (head) op.
func (c *Client) FlushCoalesced() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushCoalesced()
}

// flushCoalesced is FlushCoalesced with c.mu held.
func (c *Client) flushCoalesced() {
	for len(c.coOrder) > 0 {
		c.flushCoalescedKey(c.coOrder[0])
	}
}

// flushCoalescedKey sends one key's batch and retires its coOrder slot, so
// a later re-buffering of the key re-enters issue order at the tail rather
// than inheriting the flushed slot. WAL entries for the batch are written
// here — at send time, one per absorbed op — because the ts position
// markers the store's recovery relies on assume WAL order mirrors the
// order ops reach the wire (the cached-object flush path does the same).
func (c *Client) flushCoalescedKey(ck coKey) {
	for i, o := range c.coOrder {
		if o == ck {
			c.coOrder = append(c.coOrder[:i], c.coOrder[i+1:]...)
			break
		}
	}
	head, ok := c.co[ck]
	if !ok {
		return
	}
	delete(c.co, ck)
	c.logWal(*head)
	for _, b := range head.Batch {
		r := *head
		r.Clock, r.Arg, r.Batch = b.Clock, IntVal(b.Delta), nil
		c.logWal(r)
	}
	if len(head.Batch) > 0 {
		c.BatchedSends++
	}
	c.async(head)
}

// CoalescePending reports buffered (unsent) coalesced increments.
func (c *Client) CoalescePending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, head := range c.co {
		n += 1 + len(head.Batch)
	}
	return n
}

// applyLocal applies a cached-object mutation to the local copy.
func (c *Client) applyLocal(e *cacheEntry, req *Request) {
	ApplyToValue(&e.val, req)
	e.valid = true
}

// ensureCached initializes a cache entry from the store before the first
// locally-applied mutation, so cached ops build on the store's value
// ("the datastore's client-side library caches them at the relevant
// instance", §4.3). Full overwrites (Set) skip the fetch.
func (c *Client) ensureCached(p transport.Proc, e *cacheEntry, req *Request) {
	if e.valid || req.Op == OpSet {
		return
	}
	get := &Request{Op: OpGet, Key: req.Key, Instance: c.cfg.Instance}
	if rep, ok := c.call(p, get); ok && rep.OK {
		e.val = rep.Val
	}
	e.valid = true
}

// ApplyToValue executes req against a local value, mirroring engine
// semantics for the cacheable op subset.
func ApplyToValue(v *Value, req *Request) Reply {
	switch req.Op {
	case OpSet:
		*v = req.Arg.Copy()
		return Reply{Val: v.Copy(), OK: true}
	case OpDelete:
		existed := !v.IsNil()
		*v = Value{}
		return Reply{OK: existed}
	case OpIncr:
		v.Kind = KindInt
		v.Int += req.Arg.Int
		return Reply{Val: IntVal(v.Int), OK: true}
	case OpPushList:
		v.Kind = KindList
		v.List = append(v.List, req.Arg.Int)
		return Reply{Val: IntVal(int64(len(v.List))), OK: true}
	case OpPopList:
		if len(v.List) == 0 {
			return Reply{OK: false}
		}
		x := v.List[0]
		v.List = v.List[1:]
		return Reply{Val: IntVal(x), OK: true}
	case OpCAS:
		if v.Equal(req.Arg) {
			*v = req.Arg2.Copy()
			return Reply{Val: v.Copy(), OK: true}
		}
		return Reply{Val: v.Copy(), OK: false}
	case OpMapSet:
		ensureMapValue(v)
		v.Map[req.Field] = req.Arg.Int
		return Reply{Val: IntVal(req.Arg.Int), OK: true}
	case OpMapIncr:
		ensureMapValue(v)
		v.Map[req.Field] += req.Arg.Int
		return Reply{Val: IntVal(v.Map[req.Field]), OK: true}
	case OpMapGet:
		if v.Map == nil {
			return Reply{OK: false}
		}
		x, ok := v.Map[req.Field]
		return Reply{Val: IntVal(x), OK: ok}
	case OpMapMinIncr:
		if len(v.Map) == 0 {
			return Reply{OK: false}
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
		return Reply{Val: StringVal(minKey), OK: true}
	default:
		return Reply{OK: false}
	}
}

func ensureMapValue(v *Value) {
	if v.Map == nil {
		v.Kind = KindMap
		v.Map = make(map[string]int64)
	}
}

// NonDet fetches a store-computed non-deterministic value (Appendix A),
// memoized by packet clock for replay stability. Always blocking.
func (c *Client) NonDet(p transport.Proc, obj uint16, sub uint64, kind NonDetKind, clock uint64) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := Request{Op: OpNonDet, Key: c.key(obj, sub), NDKind: kind, Clock: clock, Instance: c.cfg.Instance}
	rep, ok := c.call(p, &req)
	if !ok || !rep.OK {
		return 0, false
	}
	return rep.Val.Int, true
}

// --- Flush and handover ------------------------------------------------------

// flushEntry sends an entry's pending ops to the store (non-blocking) and
// clears them. Per §7.3 R2, handover "flushes only operations".
func (c *Client) flushEntry(k Key, e *cacheEntry) int {
	n := len(e.pending)
	for i := range e.pending {
		req := e.pending[i]
		req.Key = k
		c.logWal(req)
		r := req
		c.async(&r)
	}
	c.FlushedOps += uint64(n)
	e.pending = nil
	return n
}

// FlushAll flushes every cached object's pending ops and any buffered
// coalesced increments.
func (c *Client) FlushAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushCoalesced()
	n := c.flushDirty(nil)
	c.flushBurst()
	return n
}

// FlushObject flushes one object's pending ops (Fig 4 step 5 prelude).
func (c *Client) FlushObject(obj uint16, sub uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.key(obj, sub)
	if e, ok := c.cache[k]; ok {
		return c.flushEntry(k, e)
	}
	return 0
}

// ReleaseFlow implements the old-instance side of Fig 4 steps 1/5: flush
// cached per-flow state for the flow's objects and disassociate ownership.
func (c *Client) ReleaseFlow(p transport.Proc, sub uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.declList {
		if d.Scope != ScopeFlow {
			continue
		}
		k := c.key(d.ID, sub)
		if e, ok := c.cache[k]; ok {
			c.flushEntry(k, e)
			e.valid = false
		}
		req := Request{Op: OpDisassoc, Key: k, Instance: c.cfg.Instance}
		c.call(p, &req)
	}
}

// AcquireFlow implements the new-instance side of Fig 4 steps 3/6/7: try to
// associate each per-flow object; on conflict, register an ownership watch
// and wait until the old instance releases, then associate. Returns false
// on timeout.
func (c *Client) AcquireFlow(p transport.Proc, sub uint64, timeout time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.declList {
		if d.Scope != ScopeFlow {
			continue
		}
		k := c.key(d.ID, sub)
		req := Request{Op: OpAssociate, Key: k, Instance: c.cfg.Instance, WatchOwner: true}
		rep, ok := c.call(p, &req)
		if !ok {
			return false
		}
		if rep.Conflict {
			// The old instance has not released yet (it may still be working
			// through packets queued BEFORE the "last" mark). Wait for the
			// store's handover notification (Fig 4 step 6), but re-try the
			// association on a short poll as the progress guarantee: the
			// notification needs this instance's event loop to pump the
			// inbox, which a single-threaded instance cannot do while its
			// only worker blocks here.
			fut := c.net.NewSignal()
			c.ownerWait[k] = fut
			deadline := p.Now().Add(timeout)
			acquired := false
			for p.Now() < deadline {
				func() {
					// Re-lock via defer so a kill-unwind mid-wait leaves the
					// mutex held for AcquireFlow's deferred Unlock.
					c.mu.Unlock()
					defer c.mu.Lock()
					fut.WaitTimeout(p, acquirePoll)
				}()
				req2 := Request{Op: OpAssociate, Key: k, Instance: c.cfg.Instance}
				rep2, ok2 := c.call(p, &req2)
				if !ok2 {
					break
				}
				if !rep2.Conflict {
					c.seedCache(k, rep2.Val)
					acquired = true
					break
				}
			}
			delete(c.ownerWait, k)
			if !acquired {
				return false
			}
		} else {
			c.seedCache(k, rep.Val)
		}
	}
	return true
}

// seedCache installs the store's value for a per-flow object acquired in a
// handover, so subsequent reads hit locally.
func (c *Client) seedCache(k Key, v Value) {
	if !c.cfg.Mode.Cache {
		return
	}
	e := c.entry(k)
	e.val = v
	e.valid = !v.IsNil()
}

// CachedPerFlow returns this client's cached per-flow entries; the recovery
// manager reads these when a store instance fails (§5.4: "query the last
// updated value of the cached per-flow state from all NF instances").
func (c *Client) CachedPerFlow() map[Key]Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Key]Value)
	for k, e := range c.cache {
		d := c.decl(k.Obj)
		if d.Scope == ScopeFlow && e.valid {
			out[k] = e.val.Copy()
		}
	}
	return out
}

// InvalidateAll clears the cache (used by tests and failover bring-up).
func (c *Client) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache = make(map[Key]*cacheEntry)
	c.dirty = nil
}

// Stats is a consistent snapshot of the client's op counters, safe to
// take while the instance's workers are running (live mode).
type Stats struct {
	BlockingOps, AsyncOps, CacheHits, CacheMisses uint64
	Retransmits, FlushedOps                       uint64
	CoalescedOps, BatchedSends, BurstRPCs         uint64
}

// StatsSnapshot returns the current counters under the client lock.
func (c *Client) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		BlockingOps: c.BlockingOps, AsyncOps: c.AsyncOps,
		CacheHits: c.CacheHits, CacheMisses: c.CacheMisses,
		Retransmits: c.Retransmits, FlushedOps: c.FlushedOps,
		CoalescedOps: c.CoalescedOps, BatchedSends: c.BatchedSends,
		BurstRPCs: c.BurstRPCs,
	}
}
