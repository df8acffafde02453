package store

import (
	"fmt"
	"maps"
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

// modeNames is the one table of the modes' config-file names.
var modeNames = [...]struct {
	name string
	mode Mode
}{{"eo", ModeEO}, {"eoc", ModeEOC}, {"eocna", ModeEOCNA}}

// Name returns the mode's config-file name ("eo", "eoc" or "eocna"), or ""
// for a mode outside the three.
func (m Mode) Name() string {
	for _, e := range modeNames {
		if e.mode == m {
			return e.name
		}
	}
	return ""
}

// ParseMode resolves a config-file mode name.
func ParseMode(name string) (Mode, error) {
	for _, e := range modeNames {
		if e.name == name {
			return e.mode, nil
		}
	}
	return Mode{}, fmt.Errorf("unknown mode %q", name)
}

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
	// CoalesceWindow bounds how long an async op may sit unsent in the
	// outbound list (see Client.out): the window timer flushes whatever no
	// other trigger has. Zero selects the default; negative also turns off
	// the merging of non-blocking increments (+NA mode).
	CoalesceWindow time.Duration
	// BurstRPC is ignored: every client holds async ops on the outbound
	// list until a flush trigger (FlushBurst, a blocking call, FlushAll,
	// the window timer) and ships them as one AsyncBatchMsg per shard.
	// The field stays only for callers that still set it.
	BurstRPC bool
}

// A window two-ish store RTTs wide keeps merging invisible next to the ACK
// timeout; the cap on the ops merged into one request bounds replay
// divergence per request.
const (
	defaultCoalesceWindow = 20 * time.Microsecond
	coalesceMax           = 32
)

// acquirePoll is the handover-acquire retry interval: a few store RTTs, so
// a conflicted acquire notices the old instance's release promptly without
// depending on the push notification being pumped.
const acquirePoll = 100 * time.Microsecond

// WalOp is one entry of the client-side write-ahead log of shared-state
// update operations (§5.4), as WAL() decodes it. Clock is always
// Req.Clock: the log stores the Request alone (walLog).
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

	// mu guards every mutable field below (cache, outbound list, pending,
	// WAL, read log, ownership waits, stats).
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

	// out is the outbound list: every async op issued and not yet sent, in
	// issue order. open indexes the increments in it that a later increment
	// of the same stream may still merge into (the stream's open head); an
	// op not in open is sealed. flushOut is the only way off the list, and
	// it is where an op gets its WAL entries, WalPos, Seq and pending slot,
	// so all four follow wire order. groups is flushOut's per-shard scratch.
	out      []*Request
	open     map[outKey]*Request
	outTimer bool // the window timer is scheduled and has not fired
	groups   []outGroup

	// Async ops sent and not yet acknowledged, by Seq.
	seq     uint64
	pending map[uint64]AsyncOp

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

	// Stats for the experiment harness; StatsSnapshot reads them while the
	// instance's workers run.
	Stats
}

// Stats are a client's op counters.
type Stats struct {
	BlockingOps, AsyncOps, CacheHits, CacheMisses uint64
	Retransmits, FlushedOps                       uint64
	// CoalescedOps counts non-blocking increments merged into an open head
	// (ops that never became their own request); BatchedSends counts the
	// requests sent that carry merged increments.
	CoalescedOps, BatchedSends uint64
	// BurstRPCs counts the AsyncBatchMsg sent with more than one op: each
	// replaced len(Ops) messages.
	BurstRPCs uint64
}

// outKey identifies one stream of mergeable increments: a key plus the
// map field (empty for plain counters).
type outKey struct {
	k     Key
	field string
}

// outGroup is the ops one flush sends to one shard.
type outGroup struct {
	shard string
	ops   []AsyncOp
}

// NewClient builds a client library instance.
func NewClient(net transport.Transport, cfg ClientConfig) *Client {
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 10 * time.Millisecond
	}
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = 1 * time.Millisecond
	}
	shards := cfg.Shards
	if len(shards) == 0 {
		shards = []string{cfg.Store}
	}
	c := &Client{
		cfg:        cfg,
		pmap:       NewPartitionMap(shards),
		net:        net,
		decls:      make(map[uint16]ObjDecl),
		cache:      make(map[Key]*cacheEntry),
		open:       make(map[outKey]*Request),
		pending:    make(map[uint64]AsyncOp),
		walCount:   make(map[string]uint64),
		walDropped: make(map[string]uint64),
		ownerWait:  make(map[Key]transport.Signal),
		objExcl:    make(map[uint16]bool),
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

// WAL decodes the client-side write-ahead log (store recovery input).
// Values come back in the wire codec's canonical form: an empty Bytes,
// List or Map is nil, as on a request that crossed a socket.
func (c *Client) WAL() []WalOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.flat()
}

// WALLen returns how many entries the WAL holds, without decoding them.
func (c *Client) WALLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.n
}

// WALDropped returns, per shard, how many of this client's WAL entries
// checkpoints have already truncated: positions stamped in checkpoints are
// absolute counts, and recovery subtracts this base to index the retained
// WAL.
func (c *Client) WALDropped() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.walDropped)
}

// PendingAcks reports async operations not yet acknowledged.
func (c *Client) PendingAcks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Shutdown stops retransmission of outstanding async ops and drops the
// unsent ones (instance crash: a dead NF cannot keep retrying; replay
// regenerates anything lost).
func (c *Client) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shutdown = true
	c.pending = make(map[uint64]AsyncOp)
	c.out = nil
	clear(c.open)
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
		c.issued()
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

// flushDirty puts the pending ops of every listed entry sel selects (nil
// selects all) on the outbound list (flushEntry) and returns how many. The
// dirty list is sorted with Key.Less first: the ops become async messages,
// and the DES message schedule must depend neither on map iteration order
// nor on which key an NF happened to dirty first. Entries sel rejects stay
// listed.
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
		c.issued()
		e.valid = false
	}
	e.exclusive = exclusive
	e.exclSet = true
}

// shardFor names the shard server owning k.
func (c *Client) shardFor(k Key) string { return c.pmap.ShardFor(k) }

// Partition exposes the client's view of the shard map (recovery, tests).
func (c *Client) Partition() *PartitionMap { return c.pmap }

// call performs a blocking RPC to the key's shard. The outbound list goes
// first (FIFO links): a blocking op must observe every async op the NF
// issued before it. call expects c.mu held and releases it around the
// network wait.
func (c *Client) call(p transport.Proc, req *Request) (Reply, bool) {
	c.flushOut(true)
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

// --- The outbound list (DESIGN.md §4) -----------------------------------------
// Async ops are fire-and-forget (§4.3: "NFs do not even wait for the ACK
// ... the framework handles operation retransmission if an ACK is not
// received before a timeout").

// merge takes a non-blocking increment into the list's open head for its
// stream, or opens one (§4.3 model #3: the NF does not wait for these ops,
// so consecutive increments on one key can share a request). A head at the
// cap, or of the other op kind, is sealed by losing its index slot: it
// keeps its place in the list, ahead of the head that replaces it. False
// means req is not mergeable.
func (c *Client) merge(req *Request) bool {
	if c.cfg.CoalesceWindow < 0 || (req.Op != OpIncr && req.Op != OpMapIncr) {
		return false
	}
	stream := outKey{k: req.Key, field: req.Field}
	if head := c.open[stream]; head != nil && head.Op == req.Op && 1+len(head.Batch) < coalesceMax {
		head.Batch = append(head.Batch, BatchEntry{Clock: req.Clock, Delta: req.Arg.Int})
		c.CoalescedOps++
		return true
	}
	r := *req
	c.open[stream] = &r
	c.out = append(c.out, &r)
	return true
}

// issued ends every path that put ops on the list outside a flush. The ops
// wait for a flush trigger; the window timer covers them, so an idle
// instance holds no op long.
func (c *Client) issued() {
	if len(c.out) == 0 || c.outTimer {
		return
	}
	c.outTimer = true
	window := c.cfg.CoalesceWindow
	if window <= 0 {
		window = defaultCoalesceWindow
	}
	c.net.Schedule(window, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.outTimer = false
		if !c.shutdown {
			c.flushOut(true)
		}
	})
}

// flushOut sends the list in issue order: all of it when sealOpen is set,
// otherwise the sealed ops only, the open heads staying for later
// increments to merge into. Each op is WAL-logged here, at send time (the
// positions a checkpoint records assume that the WAL mirrors the order in
// which ops reach the wire, per shard). The ops of one shard travel as one
// message, shards in first-use order. Expects c.mu held.
func (c *Client) flushOut(sealOpen bool) {
	if len(c.out) == 0 {
		return // the usual case under a blocking call; open is empty too
	}
	if sealOpen {
		clear(c.open)
	}
	kept := c.out[:0]
	for i, req := range c.out {
		if len(c.open) > 0 && c.open[outKey{k: req.Key, field: req.Field}] == req {
			kept = append(kept, req)
			continue
		}
		shard := c.logOp(req)
		if len(req.Batch) > 0 {
			c.BatchedSends++
		}
		c.AsyncOps++
		c.seq++
		op := AsyncOp{Req: req, Seq: c.seq, From: c.cfg.Endpoint}
		c.pending[op.Seq] = op
		g := 0
		for g < len(c.groups) && c.groups[g].shard != shard {
			g++
		}
		if g == len(c.groups) {
			// The message keeps the slice, so it is made here; no group
			// can get more than the ops still to go.
			c.groups = append(c.groups, outGroup{shard: shard, ops: make([]AsyncOp, 0, len(c.out)-i)})
		}
		c.groups[g].ops = append(c.groups[g].ops, op)
	}
	clear(c.out[len(kept):])
	c.out = kept
	for g := range c.groups {
		c.send(c.groups[g].shard, c.groups[g].ops)
		c.groups[g] = outGroup{}
	}
	c.groups = c.groups[:0]
}

// send ships ops to shard as one message and arms their retransmit timer.
// Acks stay per op: the timer offers again, together, whichever of them are
// still pending, so a lost message degrades to retransmission without any
// message-level ack state.
func (c *Client) send(shard string, ops []AsyncOp) {
	size := 0
	for _, op := range ops {
		size += op.Req.wireSize()
	}
	c.net.Send(transport.Message{
		From: c.cfg.Endpoint, To: shard,
		Payload: AsyncBatchMsg{Ops: ops},
		Size:    size,
	})
	if len(ops) > 1 {
		c.BurstRPCs++
	}
	c.net.Schedule(c.cfg.AckTimeout, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.shutdown {
			return
		}
		var again []AsyncOp
		for _, op := range ops {
			if _, unacked := c.pending[op.Seq]; unacked {
				again = append(again, op)
			}
		}
		if len(again) > 0 {
			c.Retransmits += uint64(len(again))
			c.send(shard, again)
		}
	})
}

// FlushBurst sends the sealed part of the list; the runtime calls it at
// the end of each instance burst and at the instance's other flush points.
// Open heads stay, to merge later increments until the window timer or the
// cap.
func (c *Client) FlushBurst() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushOut(false)
}

// OutPending reports the async ops issued and not yet sent, merged
// increments counted one each; scale-in quiescence checks this alongside
// PendingAcks.
func (c *Client) OutPending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, req := range c.out {
		n += 1 + len(req.Batch)
	}
	return n
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
		for _, seq := range m.Seqs {
			delete(c.pending, seq)
		}
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

// truncate drops the WAL prefix covered by one shard's checkpoint. The one
// WAL marker is the positional vector pos: the checkpoint covers the first
// pos[instance] of this client's ops OWNED BY THAT SHARD (in issue order),
// counted from the client's birth; c.walDropped maps that absolute count
// onto the retained log. The TS clocks are no WAL marker (one packet's ops
// can sit at several WAL positions), so a message without positions drops
// no WAL entry: over-retention is the safe direction. Entries for other
// shards are never touched — their checkpoints cover them separately. An
// empty shard name (single-server tier, tests) covers every key.
func (c *Client) truncate(shard string, ts, pos map[uint16]uint64) {
	owns := func(k Key) bool { return shard == "" || c.shardFor(k) == shard }
	if drop := int64(pos[c.cfg.Instance]) - int64(c.walDropped[shard]); drop > 0 {
		c.walDropped[shard] += uint64(c.wal.filter(func(k Key) bool {
			if drop == 0 || !owns(k) {
				return false
			}
			drop--
			return true
		}))
	}
	upto := ts[c.cfg.Instance]
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

// logOp appends req — and, for a merged request, each increment merged into
// it — to the client WAL, then stamps req with the resulting WAL position
// of its shard, which it returns: the store learns from the stamp exactly
// how much of this client's WAL stream the op's arrival covers (FIFO
// links: every earlier entry has been delivered by then). Ops without a
// packet clock are not shared-state mutations and are not logged.
func (c *Client) logOp(req *Request) (shard string) {
	shard = c.shardFor(req.Key)
	if req.Clock != 0 {
		c.wal.append(req)
		c.walCount[shard]++
	}
	for _, b := range req.Batch {
		if b.Clock != 0 {
			r := *req
			r.Clock, r.Arg, r.Batch = b.Clock, IntVal(b.Delta), nil
			c.wal.append(&r)
			c.walCount[shard]++
		}
	}
	req.WalPos = c.walCount[shard]
	return shard
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
		c.absorb(p, e, &req)
		return
	}
	if c.cfg.Mode.NoAckWait {
		if !c.merge(&req) {
			// Not mergeable: it seals the open heads, so the wire (and the
			// WAL, whose order mirrors it) sees this client's ops in issue
			// order.
			clear(c.open)
			r := req
			c.out = append(c.out, &r)
		}
		c.issued()
		return
	}
	// Non-blocking op, but wait for the ACK (models #1/#2): one RTT, no
	// lock contention since the store serializes (§4.3). The call keeps
	// a copy, so that req stays on the stack for the paths above.
	r := req
	c.callLogged(p, d, e, &r)
}

// callLogged sends a mutating op as a blocking call. The outbound list
// goes out before the op is logged, so WAL order matches send order (the
// ts position markers store recovery relies on assume it does). The
// updater of a cached-with-callbacks object receives the updated object in
// its reply (§4.3).
func (c *Client) callLogged(p transport.Proc, d ObjDecl, e *cacheEntry, req *Request) (Reply, bool) {
	c.flushOut(true)
	c.logOp(req)
	rep, ok := c.call(p, req)
	if ok && rep.OK && c.cfg.Mode.Cache && StrategyFor(d) == StratCacheCallback {
		e.val = rep.Val
		e.valid = true
	}
	return rep, ok
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
		return c.absorb(p, e, &req), true
	}
	return c.callLogged(p, d, e, &req)
}

// absorb applies a mutating op to the cached copy and queues it for the
// next flush. It is flushed as an operation, not a value, so the store's
// duplicate suppression still sees packet clocks.
func (c *Client) absorb(p transport.Proc, e *cacheEntry, req *Request) Reply {
	c.ensureCached(p, e, req)
	rep := ApplyToValue(&e.val, req)
	e.valid = true
	e.pending = append(e.pending, *req)
	c.markDirty(req.Key, e)
	return rep
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

// flushEntry moves an entry's pending ops onto the outbound list, as ops
// (per §7.3 R2, handover "flushes only operations"), and clears them. It
// leaves the open heads open: the keys it flushes are cached ones. The
// caller follows with issued or flushOut.
func (c *Client) flushEntry(k Key, e *cacheEntry) int {
	n := len(e.pending)
	for i := range e.pending {
		r := e.pending[i]
		r.Key = k
		c.out = append(c.out, &r)
	}
	c.FlushedOps += uint64(n)
	e.pending = nil
	return n
}

// FlushAll sends every cached object's pending ops behind everything
// already on the outbound list, and returns how many of the former.
func (c *Client) FlushAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.flushDirty(nil)
	c.flushOut(true)
	return n
}

// FlushObject flushes one object's pending ops (Fig 4 step 5 prelude).
func (c *Client) FlushObject(obj uint16, sub uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.key(obj, sub)
	if e, ok := c.cache[k]; ok {
		n := c.flushEntry(k, e)
		c.issued()
		return n
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
			c.issued()
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

// StatsSnapshot returns the current counters under the client lock, so it
// is safe while the instance's workers are running (live mode).
func (c *Client) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Stats
}
