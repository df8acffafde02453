package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"chc/internal/queue"
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
	pending    []Request // locally applied, unflushed ops (per-flow cache); see pendFree
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
	// issue order. open holds the index in out of each increment that a
	// later increment of the same stream may still merge into (the stream's
	// open head); an op not in open is sealed. flushOut is the only way off
	// the list, and it is where an op gets its WAL entries, WalPos, Seq and
	// pending slot, so all four follow wire order. The list is reused: a
	// slot keeps its Batch array for the next head it holds, and flushOut
	// copies what it sends into memory the message owns. groups is
	// flushOut's per-shard scratch.
	out      []Request
	open     map[outKey]int
	outTimer bool // the window timer is scheduled and has not fired
	groups   []outGroup

	// Async ops sent and not yet acknowledged, by Seq.
	seq     uint64
	pending map[uint64]AsyncOp

	// retx holds the sends awaiting their ack deadlines in send order,
	// which is deadline order; a send leaves it at its deadline or, all
	// its ops acked, at an ack (dropAcked). One timer, armed while the
	// queue is not empty, fires at the head's deadline (retransmit). retxFn
	// and windowFn are the two timers' callbacks, made once.
	retx      queue.FIFO[retxEntry]
	retxArmed bool
	retxFn    func()
	windowFn  func()

	// pendFree holds emptied pending slices of cache entries for reuse:
	// flushEntry copies an entry's ops onto the outbound list, so its slice
	// is free again at once. reqSlab cuts the Request a blocking call sends,
	// which the callee may hold past the call.
	pendFree [][]Request
	reqSlab  transport.Slab[Request]

	// Recovery metadata. wal holds one log per shard, in pmap.Shards
	// order: a shard's checkpoint covers a prefix of its log, and its
	// recovery reads that log alone.
	wal       []walLog
	readLog   []ReadRecord
	flushProc transport.Handle

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

// outGroup is what one flush sends to one shard, by index in pmap.Shards:
// n ops carrying nb Batch entries, copied into reqs and batch, memory the
// message owns.
type outGroup struct {
	shard int
	n, nb int
	ops   []AsyncOp
	reqs  []Request
	batch []BatchEntry
}

// retxEntry is one send awaiting its ack deadline.
type retxEntry struct {
	at    transport.Time
	shard string
	ops   []AsyncOp
}

// A client keeps for reuse up to pendFreeMax emptied pending slices of at
// most pendFreeCap ops each, and an outbound list of at most outKeepCap
// slots: what a burst of flushes grew beyond that is let go, not held.
const (
	pendFreeMax = 16
	pendFreeCap = 4
	outKeepCap  = 128
)

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
		cfg:       cfg,
		pmap:      NewPartitionMap(shards),
		net:       net,
		decls:     make(map[uint16]ObjDecl),
		cache:     make(map[Key]*cacheEntry),
		open:      make(map[outKey]int),
		pending:   make(map[uint64]AsyncOp),
		wal:       make([]walLog, len(shards)),
		ownerWait: make(map[Key]transport.Signal),
		objExcl:   make(map[uint16]bool),
	}
	c.retxFn, c.windowFn = c.retransmit, c.windowFlush
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

// WAL decodes the client-side write-ahead log of one store shard, in
// issue order (nil for a shard the client does not know). Values come
// back in the wire codec's canonical form: an empty Bytes, List or Map is
// nil, as on a request that crossed a socket.
func (c *Client) WAL(shard string) []WalOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.walOf(shard); l != nil {
		return l.flat()
	}
	return nil
}

// WALLen returns how many entries the WAL holds over every shard, without
// decoding them.
func (c *Client) WALLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.wal {
		n += c.wal[i].n
	}
	return n
}

// walOf returns shard's log, or nil for a shard the client does not know.
func (c *Client) walOf(shard string) *walLog {
	if i := slices.Index(c.pmap.Shards, shard); i >= 0 {
		return &c.wal[i]
	}
	return nil
}

// RecoveryState is this client's recovery input for the failed store
// shard (§5.4): the shard's retained WAL and how many of its entries
// checkpoints already truncated (checkpoint positions are absolute counts;
// recovery subtracts this base to index the retained WAL), the logged
// reads of its keys and the cached per-flow values of its keys ("query
// the last updated value of the cached per-flow state from all NF
// instances"). Recovery replays only that shard's operations and never
// perturbs surviving shards.
func (c *Client) RecoveryState(shard string) ClientState {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := ClientState{Instance: c.cfg.Instance, PerFlow: make(map[Key]Value)}
	if l := c.walOf(shard); l != nil {
		cs.WAL, cs.Dropped = l.flat(), l.dropped()
	}
	for _, r := range c.readLog {
		if c.shardFor(r.Key) == shard {
			cs.ReadLog = append(cs.ReadLog, r)
		}
	}
	for k, e := range c.cache {
		if e.valid && c.decl(k.Obj).Scope == ScopeFlow && c.shardFor(k) == shard {
			cs.PerFlow[k] = e.val.Copy()
		}
	}
	return cs
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
	c.retx.Clear()
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
	slices.SortFunc(c.dirty, func(a, b Key) int { // keys are distinct: any sort gives one order
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
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
	sent, size := c.reqSlab.New(*req), req.wireSize()
	// The deferred re-lock (instead of a plain Lock after the call) keeps
	// the mutex balanced when a killed live process unwinds out of the
	// network wait: the kill panic must leave c.mu held for the caller's
	// own deferred Unlock.
	c.mu.Unlock()
	defer c.mu.Lock()
	res, ok := c.net.Call(p, c.cfg.Endpoint, to, sent, size, c.cfg.RPCTimeout)
	if !ok {
		return Reply{}, false
	}
	return *res.(*Reply), true
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
	if i, ok := c.open[stream]; ok {
		if head := &c.out[i]; head.Op == req.Op && 1+len(head.Batch) < coalesceMax {
			head.Batch = append(head.Batch, BatchEntry{Clock: req.Clock, Delta: req.Arg.Int})
			c.CoalescedOps++
			return true
		}
	}
	c.open[stream] = c.hold(req)
	return true
}

// hold appends a copy of req to the outbound list and returns its index.
// The slot keeps the Batch array it held before, so a head that merges
// increments grows it only the first few times the slot is used.
func (c *Client) hold(req *Request) int {
	i := len(c.out)
	if i == cap(c.out) {
		c.out = append(c.out, Request{})
	}
	c.out = c.out[:i+1]
	batch := append(c.out[i].Batch[:0], req.Batch...)
	c.out[i] = *req
	c.out[i].Batch = batch
	return i
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
	c.net.Schedule(window, c.windowFn)
}

// windowFlush is the window timer: it sends the whole list.
func (c *Client) windowFlush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outTimer = false
	if !c.shutdown {
		c.flushOut(true)
	}
}

// flushOut sends the list in issue order: all of it when sealOpen is set,
// otherwise the sealed ops only, the open heads staying for later
// increments to merge into. Each op is WAL-logged here, at send time (the
// positions a checkpoint records assume that the WAL mirrors the order in
// which ops reach the wire, per shard). The ops of one shard travel as one
// message, shards in first-use order. A message owns three allocations:
// its ops, the Requests they point to and those Requests' Batch entries,
// whatever its op count; the list's slots are emptied for reuse. Expects
// c.mu held.
func (c *Client) flushOut(sealOpen bool) {
	if len(c.out) == 0 {
		return // the usual case under a blocking call; open is empty too
	}
	if sealOpen {
		clear(c.open)
	}
	for i := range c.out {
		if !c.isOpen(i) {
			g := c.group(c.pmap.Index(c.out[i].Key))
			g.n++
			g.nb += len(c.out[i].Batch)
		}
	}
	for g := range c.groups {
		grp := &c.groups[g]
		grp.ops = make([]AsyncOp, 0, grp.n)
		grp.reqs = make([]Request, 0, grp.n)
		if grp.nb > 0 {
			grp.batch = make([]BatchEntry, 0, grp.nb)
		}
	}
	kept := 0
	for i := range c.out {
		req := &c.out[i]
		if c.isOpen(i) {
			// Swapped, not copied: the slot left behind was sent and
			// emptied, and two slots must never share a Batch array.
			c.out[kept], c.out[i] = c.out[i], c.out[kept]
			c.open[outKey{k: c.out[kept].Key, field: c.out[kept].Field}] = kept
			kept++
			continue
		}
		grp := c.group(c.logOp(req))
		grp.reqs = append(grp.reqs, *req)
		sent := &grp.reqs[len(grp.reqs)-1]
		sent.Batch = nil
		if len(req.Batch) > 0 {
			lo := len(grp.batch)
			grp.batch = append(grp.batch, req.Batch...)
			sent.Batch = grp.batch[lo:len(grp.batch):len(grp.batch)]
			c.BatchedSends++
		}
		c.AsyncOps++
		c.seq++
		op := AsyncOp{Req: sent, Seq: c.seq, From: c.cfg.Endpoint}
		c.pending[op.Seq] = op
		grp.ops = append(grp.ops, op)
		*req = Request{Batch: req.Batch[:0]}
	}
	c.out = c.out[:kept]
	if cap(c.out) > outKeepCap {
		c.out = append([]Request(nil), c.out...)
	}
	for g := range c.groups {
		c.send(c.pmap.Shards[c.groups[g].shard], c.groups[g].ops)
		c.groups[g] = outGroup{}
	}
	c.groups = c.groups[:0]
}

// isOpen reports whether out[i] is an open head. Expects c.mu held.
func (c *Client) isOpen(i int) bool {
	if len(c.open) == 0 {
		return false
	}
	j, ok := c.open[outKey{k: c.out[i].Key, field: c.out[i].Field}]
	return ok && j == i
}

// group returns flushOut's group for the shard of that index, adding it
// after the others the first time.
func (c *Client) group(shard int) *outGroup {
	for g := range c.groups {
		if c.groups[g].shard == shard {
			return &c.groups[g]
		}
	}
	c.groups = append(c.groups, outGroup{shard: shard})
	return &c.groups[len(c.groups)-1]
}

// send ships ops to shard as one message and queues them for the
// retransmit timer. Acks stay per op: at the message's deadline the timer
// offers again, together, whichever of them are still pending, so a lost
// message degrades to retransmission without any message-level ack state.
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
	c.retx.Push(retxEntry{at: c.net.Now().Add(c.cfg.AckTimeout), shard: shard, ops: ops})
	if !c.retxArmed {
		c.retxArmed = true
		c.net.Schedule(c.cfg.AckTimeout, c.retxFn)
	}
}

// retransmit is the retransmit timer: it offers again the unacked ops of
// every send whose deadline has come, then re-arms for the next deadline.
// It fires at each deadline, the instants one timer per send would.
func (c *Client) retransmit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shutdown {
		return
	}
	now := c.net.Now()
	// retxArmed stays set while the due sends are offered again, so their
	// sends queue behind the rest without arming a second timer.
	for head := c.retx.Front(); head != nil && head.at <= now; head = c.retx.Front() {
		due, _ := c.retx.Pop()
		var again []AsyncOp
		for _, op := range due.ops {
			if _, unacked := c.pending[op.Seq]; unacked {
				again = append(again, op)
			}
		}
		if len(again) > 0 {
			c.Retransmits += uint64(len(again))
			c.send(due.shard, again)
		}
	}
	head := c.retx.Front()
	if head == nil {
		c.retxArmed = false
		return
	}
	c.net.Schedule(head.at.Sub(now), c.retxFn)
}

// dropAcked takes off the head of the retransmit queue the sends whose ops
// are all acked: nothing of theirs can be offered again, so their memory
// goes at the ack, not at the deadline. The timer stays armed; at its
// deadline it finds a later head or none, so retransmissions keep their
// instants.
func (c *Client) dropAcked() {
	for head := c.retx.Front(); head != nil; head = c.retx.Front() {
		for len(head.ops) > 0 {
			if _, unacked := c.pending[head.ops[0].Seq]; unacked {
				return
			}
			head.ops = head.ops[1:]
		}
		c.retx.Pop()
	}
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
	for i := range c.out {
		n += 1 + len(c.out[i].Batch)
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
	case *AckMsg:
		for _, seq := range m.Seqs {
			delete(c.pending, seq)
		}
		c.dropAcked()
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
// pos[instance] entries of this client's log for that shard (in issue
// order), counted from the client's birth; what the log already dropped
// maps that absolute count onto the retained entries. The TS clocks are no
// WAL marker (one packet's ops can sit at several WAL positions), so a
// message without positions drops no WAL entry: over-retention is the safe
// direction. Other shards' logs are never touched — their checkpoints
// cover them separately — and a shard the client does not know truncates
// nothing.
func (c *Client) truncate(shard string, ts, pos map[uint16]uint64) {
	l := c.walOf(shard)
	if l == nil {
		return
	}
	if drop := int64(pos[c.cfg.Instance]) - int64(l.dropped()); drop > 0 {
		l.dropPrefix(int(drop))
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
		if c.shardFor(r.Key) == shard && r.Clock <= upto {
			continue
		}
		keptR = append(keptR, r)
	}
	c.readLog = keptR
}

// logOp appends req — and, for a merged request, each increment merged into
// it — to its shard's WAL, then stamps req with the resulting WAL position
// of that shard, whose index it returns: the store learns from the stamp
// exactly how much of this client's WAL stream the op's arrival covers
// (FIFO links: every earlier entry has been delivered by then). Ops
// without a packet clock are not shared-state mutations and are not
// logged.
func (c *Client) logOp(req *Request) (shard int) {
	i := c.pmap.Index(req.Key)
	l := &c.wal[i]
	if req.Clock != 0 {
		l.append(req)
	}
	for _, b := range req.Batch {
		if b.Clock != 0 {
			r := *req
			r.Clock, r.Arg, r.Batch = b.Clock, IntVal(b.Delta), nil
			l.append(&r)
		}
	}
	req.WalPos = l.total
	return i
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
			c.hold(&req)
		}
		c.issued()
		return
	}
	// Non-blocking op, but wait for the ACK (models #1/#2): one RTT, no
	// lock contention since the store serializes (§4.3).
	c.callLogged(p, d, e, &req)
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
	if e.pending == nil && len(c.pendFree) > 0 {
		e.pending = c.pendFree[len(c.pendFree)-1]
		c.pendFree = c.pendFree[:len(c.pendFree)-1]
	}
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
// (per §7.3 R2, handover "flushes only operations"), and clears them; the
// emptied slice goes on pendFree. It leaves the open heads open: the keys
// it flushes are cached ones. The caller follows with issued or flushOut.
func (c *Client) flushEntry(k Key, e *cacheEntry) int {
	n := len(e.pending)
	for i := range e.pending {
		e.pending[i].Key = k
		c.hold(&e.pending[i])
	}
	c.FlushedOps += uint64(n)
	if cap(e.pending) > 0 && cap(e.pending) <= pendFreeCap && len(c.pendFree) < pendFreeMax {
		clear(e.pending)
		c.pendFree = append(c.pendFree, e.pending[:0])
	}
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

// InvalidateAll clears the cache, dropping the ops it holds unsent. Only
// tests call it: a failover replacement starts with an empty cache.
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
