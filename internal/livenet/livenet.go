// Package livenet implements transport.Transport on real goroutines,
// channels and wall-clock time. It is the live-execution substrate: the
// same chain/runtime/store code that runs on the deterministic DES
// (internal/simnet) runs here under genuine concurrency, so the metadata
// protocols are exercised by real interleavings and the race detector
// covers the actual hot paths.
//
// Semantics mirror simnet's:
//
//   - endpoints are named unbounded FIFO inboxes; delivery order per link
//     is send order (plus injected reorder delay);
//   - links model latency/jitter/bandwidth and loss/duplication
//     probabilistically from a seeded source;
//   - Crash fail-stops an endpoint (traffic dropped, inbox cleared);
//   - Kill fail-stops a process at its next blocking point (recv, sleep,
//     call wait), exactly like the DES's kill-unwind.
//
// Time is reported as nanoseconds since the transport was created, so
// transport.Time values are comparable across both substrates.
package livenet

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"

	"chc/internal/transport"
)

// killSentinel unwinds killed processes (recovered by the spawn wrapper).
type killSentinel struct{ name string }

// Config tunes a live network.
type Config struct {
	// Seed drives loss/duplication/jitter draws and Intn.
	Seed int64
	// DefaultLink applies to links without an explicit SetLink.
	DefaultLink transport.LinkConfig
}

// link is the state for one directed endpoint pair.
type link struct {
	cfg    transport.LinkConfig
	txFree transport.Time // when the link's transmitter is next idle
	up     bool

	sent, delivered, dropped, duplicated uint64
}

// mailbox is an unbounded FIFO with a wake channel. Lost-wakeup safety:
// push posts a (coalesced) notify; a consumer that pops while more
// messages remain re-posts it, so coalesced notifies never strand queued
// messages when several consumers share the box.
type mailbox struct {
	mu     sync.Mutex
	q      []transport.Message
	notify chan struct{}
}

func newMailbox() *mailbox { return &mailbox{notify: make(chan struct{}, 1)} }

func (m *mailbox) wake() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

func (m *mailbox) push(msg transport.Message) {
	m.mu.Lock()
	m.q = append(m.q, msg)
	m.mu.Unlock()
	m.wake()
}

func (m *mailbox) pop() (transport.Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		return transport.Message{}, false
	}
	msg := m.q[0]
	m.q[0] = transport.Message{}
	m.q = m.q[1:]
	if len(m.q) > 0 {
		m.wake()
	}
	return msg, true
}

func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q)
}

func (m *mailbox) drain() {
	m.mu.Lock()
	m.q = nil
	m.mu.Unlock()
}

// Endpoint is a named attachment point.
type Endpoint struct {
	name string
	box  *mailbox
	down bool // guarded by net.mu
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Len reports queued messages.
func (e *Endpoint) Len() int { return e.box.len() }

// Recv suspends p until a message is available. A killed process unwinds.
func (e *Endpoint) Recv(p transport.Proc) transport.Message {
	lp := p.(*Proc)
	for {
		if msg, ok := e.box.pop(); ok {
			return msg
		}
		select {
		case <-e.box.notify:
		case <-lp.killed:
			panic(killSentinel{lp.name})
		}
	}
}

// Proc is a live process: a goroutine with a fail-stop kill channel.
type Proc struct {
	net    *Net
	name   string
	killed chan struct{}
	once   sync.Once
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns nanoseconds since the transport started.
func (p *Proc) Now() transport.Time { return p.net.Now() }

// Sleep suspends the process for real duration d (interruptible by Kill).
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.killed:
		panic(killSentinel{p.name})
	}
}

func (p *Proc) kill() { p.once.Do(func() { close(p.killed) }) }

// signal is a one-shot handoff with first-wins Resolve.
type signal struct {
	mu       sync.Mutex
	done     chan struct{}
	v        any
	resolved bool
}

func (s *signal) Resolve(v any) {
	s.mu.Lock()
	if !s.resolved {
		s.resolved = true
		s.v = v
		close(s.done)
	}
	s.mu.Unlock()
}

func (s *signal) Resolved() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolved
}

func (s *signal) value() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}

func (s *signal) WaitTimeout(p transport.Proc, d time.Duration) (any, bool) {
	lp, _ := p.(*Proc)
	t := time.NewTimer(d)
	defer t.Stop()
	if lp != nil {
		select {
		case <-s.done:
			return s.value(), true
		case <-t.C:
		case <-lp.killed:
			panic(killSentinel{lp.name})
		}
	} else {
		select {
		case <-s.done:
			return s.value(), true
		case <-t.C:
		}
	}
	// The timer fired, but a resolution racing the deadline must win
	// (matching the DES, where a reply at the deadline instant is
	// delivered): a dropped reply here would make the caller treat an
	// APPLIED operation as failed, unbalancing its packet's XOR vector.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resolved {
		return s.v, true
	}
	return nil, false
}

// callMsg is the payload wrapper for live RPCs.
type callMsg struct {
	net     *Net
	from    string
	to      string
	payload any
	sig     *signal
}

// From returns the calling endpoint's name.
func (c *callMsg) From() string { return c.from }

// Body returns the request payload.
func (c *callMsg) Body() any { return c.payload }

// Reply resolves the caller after the return link's model. Duplicate
// replies are no-ops (Resolve is first-wins).
func (c *callMsg) Reply(v any, replySize int) {
	n := c.net
	n.mu.Lock()
	_, _, delay, ok, _ := n.planLocked(c.to, c.from, replySize)
	n.mu.Unlock()
	if !ok {
		return
	}
	fire := func() {
		n.mu.Lock()
		down := n.endpointLocked(c.from).down || n.stopped
		if !down {
			n.linkLocked(c.to, c.from).delivered++
		}
		n.mu.Unlock()
		if !down {
			c.sig.Resolve(v)
		}
	}
	if delay <= 0 {
		fire()
	} else {
		n.scheduleDelivery(delay, fire)
	}
}

// Net is a live network: endpoints, links, timers and processes.
type Net struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*Endpoint
	links     map[[2]string]*link
	def       transport.LinkConfig
	procs     map[*Proc]struct{}
	timers    map[*time.Timer]struct{}
	stopped   bool
	wg        sync.WaitGroup

	// Delayed-delivery dispatcher: a single goroutine executes deliveries
	// in (deadline, enqueue-order) order, mirroring the DES event heap's
	// seq tie-break — per-link FIFO holds even when latency is injected
	// (independent time.AfterFunc callbacks would race equal deadlines).
	dmu      sync.Mutex
	dheap    deliveryHeap
	dseq     uint64
	dkick    chan struct{}
	drunning bool
	dstopped bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New creates a live network.
func New(cfg Config) *Net {
	return &Net{
		start:     time.Now(),
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]*link),
		def:       cfg.DefaultLink,
		procs:     make(map[*Proc]struct{}),
		timers:    make(map[*time.Timer]struct{}),
		dkick:     make(chan struct{}, 1),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
}

// delivery is one pending dispatched action.
type delivery struct {
	at  transport.Time
	seq uint64
	fn  func()
}

type deliveryHeap []delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// scheduleDelivery enqueues fn to run after delay, ordered with every
// other scheduled delivery (lazily starts the dispatcher goroutine).
func (n *Net) scheduleDelivery(delay time.Duration, fn func()) {
	n.dmu.Lock()
	if n.dstopped {
		n.dmu.Unlock()
		return
	}
	heap.Push(&n.dheap, delivery{at: n.Now().Add(delay), seq: n.dseq, fn: fn})
	n.dseq++
	if !n.drunning {
		n.drunning = true
		n.wg.Add(1)
		go n.dispatchLoop()
	}
	n.dmu.Unlock()
	select {
	case n.dkick <- struct{}{}:
	default:
	}
}

func (n *Net) dispatchLoop() {
	defer n.wg.Done()
	for {
		n.dmu.Lock()
		if n.dstopped {
			n.dmu.Unlock()
			return
		}
		if len(n.dheap) == 0 {
			n.dmu.Unlock()
			<-n.dkick
			continue
		}
		next := n.dheap[0]
		wait := next.at.Sub(n.Now())
		if wait <= 0 {
			heap.Pop(&n.dheap)
			n.dmu.Unlock()
			next.fn()
			continue
		}
		n.dmu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-n.dkick:
		}
		t.Stop()
	}
}

// Now returns nanoseconds since the transport started.
func (n *Net) Now() transport.Time { return transport.Time(time.Since(n.start)) }

// Intn draws from the seeded (locked) random source.
func (n *Net) Intn(v int64) int64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Int63n(v)
}

func (n *Net) float64() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64()
}

// Endpoint returns (creating on first use) the named endpoint.
func (n *Net) Endpoint(name string) transport.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpointLocked(name)
}

func (n *Net) endpointLocked(name string) *Endpoint {
	if e, ok := n.endpoints[name]; ok {
		return e
	}
	e := &Endpoint{name: name, box: newMailbox()}
	n.endpoints[name] = e
	return e
}

func (n *Net) linkLocked(from, to string) *link {
	key := [2]string{from, to}
	if l, ok := n.links[key]; ok {
		return l
	}
	l := &link{cfg: n.def, up: true}
	n.links[key] = l
	return l
}

// SetLink configures the directed link from -> to.
func (n *Net) SetLink(from, to string, cfg transport.LinkConfig) {
	n.mu.Lock()
	n.links[[2]string{from, to}] = &link{cfg: cfg, up: true}
	n.mu.Unlock()
}

// SetLinkBoth configures both directions with the same config.
func (n *Net) SetLinkBoth(a, b string, cfg transport.LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// SetLinkUp raises or cuts the directed link from -> to.
func (n *Net) SetLinkUp(from, to string, up bool) {
	n.mu.Lock()
	n.linkLocked(from, to).up = up
	n.mu.Unlock()
}

// LinkStats returns delivery statistics for the directed link.
func (n *Net) LinkStats(from, to string) (sent, delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.linkLocked(from, to)
	return l.sent, l.delivered, l.dropped
}

// Crash marks an endpoint down and clears its inbox. The drain happens
// under the network lock so it is atomic with the down flag: no delivery
// can observe the endpoint up and then push after the drain.
func (n *Net) Crash(name string) {
	n.mu.Lock()
	e := n.endpointLocked(name)
	e.down = true
	e.box.drain()
	n.mu.Unlock()
}

// Restart brings a crashed endpoint back with an empty inbox.
func (n *Net) Restart(name string) {
	n.mu.Lock()
	e := n.endpointLocked(name)
	e.down = false
	e.box.drain()
	n.mu.Unlock()
}

// planLocked applies the directed link's model to one transmission: it
// counts the send, draws loss, duplication and delay, and returns the
// destination, the link and the delivery delay. ok is false when the
// message is dropped (endpoint down, link cut, network shut down, loss
// draw); dup reports an injected duplicate. Expects n.mu held; rngMu nests
// inside it, and no caller takes n.mu while holding rngMu.
func (n *Net) planLocked(from, to string, size int) (dst *Endpoint, l *link, delay time.Duration, ok, dup bool) {
	src := n.endpointLocked(from)
	dst = n.endpointLocked(to)
	l = n.linkLocked(from, to)
	l.sent++
	if src.down || dst.down || !l.up || n.stopped {
		l.dropped++
		return dst, l, 0, false, false
	}
	cfg := l.cfg
	if cfg.BandwidthBps > 0 && size > 0 {
		tx := time.Duration(int64(size) * 8 * int64(time.Second) / cfg.BandwidthBps)
		now := n.Now()
		start := now
		if l.txFree > start {
			start = l.txFree
		}
		l.txFree = start.Add(tx)
		delay = l.txFree.Sub(now)
	}
	if cfg.LossProb > 0 && n.float64() < cfg.LossProb {
		l.dropped++
		return dst, l, 0, false, false
	}
	delay += cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(n.Intn(int64(cfg.Jitter)))
	}
	if cfg.ReorderProb > 0 && n.float64() < cfg.ReorderProb {
		delay += cfg.ReorderDelay
	}
	if cfg.DupProb > 0 && n.float64() < cfg.DupProb {
		dup = true
		l.duplicated++
	}
	return dst, l, delay, true, dup
}

// deliverNow lands one delayed message: liveness re-check, stats and the
// mailbox push all happen under the network lock, so a concurrent Crash
// (which drains under the same lock) can never be interleaved between the
// down-check and the push.
func (n *Net) deliverNow(msg transport.Message) {
	n.mu.Lock()
	dst := n.endpointLocked(msg.To)
	if dst.down || n.stopped {
		n.linkLocked(msg.From, msg.To).dropped++
		n.mu.Unlock()
		return
	}
	n.linkLocked(msg.From, msg.To).delivered++
	dst.box.push(msg)
	n.mu.Unlock()
}

// Send transmits msg, applying the link model: a burst of one. It never
// blocks.
func (n *Net) Send(msg transport.Message) {
	n.SendBurst([]transport.Message{msg})
}

// SendBurst transmits msgs with one network-lock acquisition for the
// whole burst and one mailbox lock/notify per same-destination run,
// instead of one of each per message. The link model (loss, duplication,
// jitter, bandwidth serialization) is applied per message under the
// seeded source, so a burst is observationally a sequence of Sends: FIFO
// holds within the burst and across consecutive bursts on a link.
// Zero-delay deliveries land inline on the sender's goroutine; delayed
// ones go through the ordered dispatcher, so per-link FIFO holds in both
// cases.
func (n *Net) SendBurst(msgs []transport.Message) {
	n.mu.Lock()
	// Zero-delay survivors append to the destination mailbox directly; the
	// box lock is held across a same-destination run and the wake is
	// coalesced to one notify per run.
	var curBox *mailbox
	flush := func() {
		if curBox != nil {
			curBox.mu.Unlock()
			curBox.wake()
			curBox = nil
		}
	}
	for _, msg := range msgs {
		dst, l, delay, ok, dup := n.planLocked(msg.From, msg.To, msg.Size)
		if !ok {
			continue
		}
		if delay > 0 {
			m := msg
			n.scheduleDelivery(delay, func() { n.deliverNow(m) })
			if dup {
				n.scheduleDelivery(delay, func() { n.deliverNow(m) })
			}
			continue
		}
		if curBox != dst.box {
			flush()
			curBox = dst.box
			curBox.mu.Lock()
		}
		l.delivered++
		curBox.q = append(curBox.q, msg)
		if dup {
			l.delivered++
			curBox.q = append(curBox.q, msg)
		}
	}
	flush()
	n.mu.Unlock()
}

// Call performs an RPC: the callee receives a transport.Call payload and
// replies; the caller blocks up to timeout.
func (n *Net) Call(p transport.Proc, from, to string, payload any, size int, timeout time.Duration) (any, bool) {
	sig := &signal{done: make(chan struct{})}
	cm := &callMsg{net: n, from: from, to: to, payload: payload, sig: sig}
	n.Send(transport.Message{From: from, To: to, Payload: cm, Size: size})
	return sig.WaitTimeout(p, timeout)
}

// NewSignal creates a one-shot handoff.
func (n *Net) NewSignal() transport.Signal { return &signal{done: make(chan struct{})} }

// Spawn starts fn on a new goroutine. A killed process unwinds at its next
// blocking point; the panic sentinel is recovered here.
func (n *Net) Spawn(name string, fn func(transport.Proc)) transport.Handle {
	p := &Proc{net: n, name: name, killed: make(chan struct{})}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		p.kill()
		return p
	}
	n.procs[p] = struct{}{}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer func() {
			r := recover()
			n.mu.Lock()
			delete(n.procs, p)
			n.mu.Unlock()
			n.wg.Done()
			if r != nil {
				if _, isKill := r.(killSentinel); !isKill {
					panic(r)
				}
			}
		}()
		fn(p)
	}()
	return p
}

// Kill fail-stops a spawned process at its next blocking point.
func (n *Net) Kill(h transport.Handle) {
	if p, ok := h.(*Proc); ok && p != nil {
		p.kill()
	}
}

// Schedule runs fn once after real delay d (dropped after Shutdown).
func (n *Net) Schedule(d time.Duration, fn func()) { n.afterFunc(d, fn) }

// afterFunc is Schedule with shutdown tracking: Shutdown stops pending
// timers and waits for in-flight callbacks.
func (n *Net) afterFunc(d time.Duration, fn func()) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.wg.Add(1)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		n.mu.Lock()
		delete(n.timers, t)
		stopped := n.stopped
		n.mu.Unlock()
		if !stopped {
			fn()
		}
		n.wg.Done()
	})
	n.timers[t] = struct{}{}
	n.mu.Unlock()
}

// RunFor sleeps d of real time (the goroutines advance themselves).
func (n *Net) RunFor(d time.Duration) { time.Sleep(d) }

// Drive blocks until sig resolves or timeout elapses.
func (n *Net) Drive(sig transport.Signal, timeout time.Duration) bool {
	s := sig.(*signal)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.done:
		return true
	case <-t.C:
		return s.Resolved()
	}
}

// Shutdown fail-stops every process, cancels pending timers, and waits
// for all of them to exit. Component state is safe to read afterwards
// (the join establishes happens-before with every process's writes).
func (n *Net) Shutdown() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.stopped = true
	for t := range n.timers {
		if t.Stop() {
			n.wg.Done()
		}
		delete(n.timers, t)
	}
	procs := make([]*Proc, 0, len(n.procs))
	for p := range n.procs {
		procs = append(procs, p)
	}
	n.mu.Unlock()
	n.dmu.Lock()
	n.dstopped = true
	n.dheap = nil
	n.dmu.Unlock()
	select {
	case n.dkick <- struct{}{}:
	default:
	}
	for _, p := range procs {
		p.kill()
	}
	n.wg.Wait()
}

// Live reports that this is the real-time substrate.
func (n *Net) Live() bool { return true }
