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
//   - links model latency/jitter/bandwidth, loss, reordering and
//     duplication from a seeded source, through the same
//     transport.Link.Plan as the DES, on both legs of every call;
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
	// Seed drives the links' loss/duplication/jitter draws and Intn.
	Seed int64
	// DefaultLink applies to links without an explicit SetLink.
	DefaultLink transport.LinkConfig
}

// mailbox is an unbounded FIFO with a wake channel. Lost-wakeup safety:
// push posts a (coalesced) notify; a consumer that pops while more
// messages remain re-posts it, so coalesced notifies never strand queued
// messages when several consumers share the box.
//
// The queue is q[head:]. A pop advances head, and the box resets to
// q[:0] when it empties, so a box that runs dry between messages keeps
// its array instead of re-slicing it down to capacity 0. An append that
// finds the array full slides the live part down over the consumed prefix
// instead of growing, unless the prefix is less than an eighth of the
// live part: memory stays bounded by peak depth, and a slide costs at
// most eight copies per message freed.
type mailbox struct {
	mu     sync.Mutex
	q      []transport.Message
	head   int
	notify chan struct{}
}

func newMailbox() *mailbox { return &mailbox{notify: make(chan struct{}, 1)} }

func (m *mailbox) wake() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// appendLocked queues msg. Expects m.mu held.
func (m *mailbox) appendLocked(msg transport.Message) {
	if len(m.q) == cap(m.q) && m.head > 0 && m.head*8 >= len(m.q)-m.head {
		n := copy(m.q, m.q[m.head:])
		clear(m.q[n:])
		m.q = m.q[:n]
		m.head = 0
	}
	m.q = append(m.q, msg)
}

func (m *mailbox) push(msg transport.Message) {
	m.mu.Lock()
	m.appendLocked(msg)
	m.mu.Unlock()
	m.wake()
}

func (m *mailbox) pop() (transport.Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.q) {
		return transport.Message{}, false
	}
	msg := m.q[m.head]
	m.q[m.head] = transport.Message{}
	m.head++
	if m.head == len(m.q) {
		m.q, m.head = m.q[:0], 0
	} else {
		m.wake()
	}
	return msg, true
}

func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q) - m.head
}

func (m *mailbox) drain() {
	m.mu.Lock()
	m.q, m.head = nil, 0
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

// Proc is a live process: a goroutine with a fail-stop kill channel, and
// the call slot its blocking RPCs resolve.
//
// A process blocks in at most one Call at a time, so the slot, its wake
// channel and its timer are made once and reused by every call. Each call
// takes a new generation; a reply resolves the slot only while its
// generation is current, so a late reply to a call that timed out, or a
// second reply to a duplicated request, can never resolve a later call.
// The call envelopes are cut from the process's own slab (calls).
type Proc struct {
	net    *Net
	name   string
	killed chan struct{}
	once   sync.Once

	// timer serves every timed wait of the process (Sleep, a signal's
	// WaitTimeout, a Call); made on first use, owned by the process's
	// goroutine.
	timer *time.Timer
	// wake is posted (capacity 1) when the current call resolves.
	wake chan struct{}

	mu       sync.Mutex // guards the slot below
	gen      uint64
	resolved bool
	reply    any

	calls transport.Slab[callMsg] // used by the process's goroutine only
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
	p.wait(nil, d)
}

func (p *Proc) kill() { p.once.Do(func() { close(p.killed) }) }

// wait blocks until ch is ready or d elapses, and unwinds if the process
// is killed. A nil ch waits for the timer or the kill alone. Callers read
// their outcome from their own state, so a resolution racing the timer
// is not lost.
func (p *Proc) wait(ch <-chan struct{}, d time.Duration) {
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-ch:
		p.timer.Stop()
	case <-p.timer.C:
	case <-p.killed:
		p.timer.Stop()
		panic(killSentinel{p.name})
	}
}

// ArmCall opens a new call on p's slot and returns its generation: a reply
// to any earlier call is dropped from now on. Must be called from p's own
// goroutine, before the request leaves.
func (p *Proc) ArmCall() uint64 {
	p.mu.Lock()
	p.gen++
	gen := p.gen
	p.resolved, p.reply = false, nil
	// A wake posted by an earlier call's reply (one that raced its
	// deadline) must not end this call's wait.
	select {
	case <-p.wake:
	default:
	}
	p.mu.Unlock()
	return gen
}

// ResolveCall delivers v to the call of generation gen, if it is still
// p's current call and has no reply yet (first reply wins). Safe from any
// goroutine.
func (p *Proc) ResolveCall(gen uint64, v any) {
	p.mu.Lock()
	if gen == p.gen && !p.resolved {
		p.resolved, p.reply = true, v
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
}

// AwaitCall blocks p until its armed call resolves, timeout elapses (ok
// false) or p is killed (unwind).
func (p *Proc) AwaitCall(timeout time.Duration) (any, bool) {
	p.wait(p.wake, timeout)
	// Whether the wait woke on the reply or on the timer, the slot decides:
	// a reply racing the deadline must win (matching the DES, where a
	// resolution at the deadline instant that is ordered before the timer
	// is delivered), since a dropped reply here would make the caller treat
	// an APPLIED operation as failed, unbalancing its packet's XOR vector.
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.reply, p.resolved
	p.reply = nil
	return v, ok
}

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

// WaitTimeout suspends p until the signal resolves or d elapses. A
// resolution racing the deadline wins, as in AwaitCall.
func (s *signal) WaitTimeout(p transport.Proc, d time.Duration) (any, bool) {
	if lp, ok := p.(*Proc); ok {
		lp.wait(s.done, d)
	} else {
		t := time.NewTimer(d)
		select {
		case <-s.done:
		case <-t.C:
		}
		t.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v, s.resolved
}

// callMsg is the payload wrapper for live RPCs. It names the caller's
// slot and the call's generation. Each call gets its own, cut from the
// caller's slab, rather than one living in the slot: the callee, or a
// duplicated delivery of the request, may still hold it after the caller
// has moved on to its next call, and its Reply must then resolve nothing.
type callMsg struct {
	net     *Net
	from    string
	to      string
	payload any
	caller  *Proc
	gen     uint64
}

// From returns the calling endpoint's name.
func (c *callMsg) From() string { return c.from }

// Body returns the request payload.
func (c *callMsg) Body() any { return c.payload }

// Reply resolves the caller when the reply lands (Net.Reply).
func (c *callMsg) Reply(v any, replySize int) {
	c.net.Reply(c.caller, c.gen, c.from, c.to, v, replySize)
}

// Net is a live network: endpoints, links, timers and processes.
type Net struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*Endpoint
	links     *transport.Links // guarded by mu
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

	rng *rand.Rand // guarded by mu
}

// New creates a live network.
func New(cfg Config) *Net {
	return &Net{
		start:     time.Now(),
		endpoints: make(map[string]*Endpoint),
		links:     transport.NewLinks(cfg.DefaultLink),
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

// Intn draws from the seeded source the links draw from.
func (n *Net) Intn(v int64) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Int63n(v)
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

// SetLink configures the directed link from -> to.
func (n *Net) SetLink(from, to string, cfg transport.LinkConfig) {
	n.mu.Lock()
	n.links.Set(from, to, cfg)
	n.mu.Unlock()
}

// SetLinkUp raises or cuts the directed link from -> to.
func (n *Net) SetLinkUp(from, to string, up bool) {
	n.mu.Lock()
	n.links.SetUp(from, to, up)
	n.mu.Unlock()
}

// LinkStats returns delivery statistics for the directed link.
func (n *Net) LinkStats(from, to string) (sent, delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.links.Stats(from, to)
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

// endsUpLocked reports whether a message from src to dst may travel:
// both ends up and the network running. Expects n.mu held.
func (n *Net) endsUpLocked(src string, dst *Endpoint) bool {
	return !n.endpointLocked(src).down && !dst.down && !n.stopped
}

// landLater lands copies of one message after delay, in dispatcher order.
// Each copy is counted, and delivered if dst is still up, under the
// network lock, so a concurrent Crash (which drains under the same lock)
// can never fall between the check and the delivery.
func (n *Net) landLater(delay time.Duration, copies int, l *transport.Link, dst *Endpoint, deliver func()) {
	arrive := func() {
		n.mu.Lock()
		if l.Land(!dst.down && !n.stopped) {
			deliver()
		}
		n.mu.Unlock()
	}
	for range copies {
		n.scheduleDelivery(delay, arrive)
	}
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
		dst := n.endpointLocked(msg.To)
		l := n.links.Get(msg.From, msg.To)
		delay, copies := l.Plan(n, msg.Size, n.endsUpLocked(msg.From, dst), n.rng)
		if delay > 0 {
			n.landLater(delay, copies, l, dst, func() { dst.box.push(msg) })
			continue
		}
		for range copies {
			if curBox != dst.box {
				flush()
				curBox = dst.box
				curBox.mu.Lock()
			}
			l.Land(true)
			curBox.appendLocked(msg)
		}
	}
	flush()
	n.mu.Unlock()
}

// Reply carries v, the reply to the call from -> to that p armed as
// generation gen, back over the link to -> from, and resolves that call
// when a copy lands (first reply wins; a late one resolves nothing). It is
// every reply's way into this core: a local callee's Call.Reply, and a
// reply frame from a remote callee on netnet. A zero-delay reply is
// counted and resolved under the one network-lock section that plans it;
// the slot lock nests inside n.mu.
func (n *Net) Reply(p *Proc, gen uint64, from, to string, v any, size int) {
	n.mu.Lock()
	dst := n.endpointLocked(from)
	l := n.links.Get(to, from)
	delay, copies := l.Plan(n, size, n.endsUpLocked(to, dst), n.rng)
	if delay > 0 {
		n.landLater(delay, copies, l, dst, func() { p.ResolveCall(gen, v) })
	} else {
		for range copies {
			l.Land(true)
			p.ResolveCall(gen, v)
		}
	}
	n.mu.Unlock()
}

// Call performs an RPC: the callee receives a transport.Call payload and
// replies; the caller blocks on its slot up to timeout.
func (n *Net) Call(p transport.Proc, from, to string, payload any, size int, timeout time.Duration) (any, bool) {
	lp := p.(*Proc)
	cm := lp.calls.New(callMsg{net: n, from: from, to: to, payload: payload, caller: lp, gen: lp.ArmCall()})
	n.Send(transport.Message{From: from, To: to, Payload: cm, Size: size})
	return lp.AwaitCall(timeout)
}

// NewSignal creates a one-shot handoff.
func (n *Net) NewSignal() transport.Signal { return &signal{done: make(chan struct{})} }

// Spawn starts fn on a new goroutine. A killed process unwinds at its next
// blocking point; the panic sentinel is recovered here.
func (n *Net) Spawn(name string, fn func(transport.Proc)) transport.Handle {
	p := &Proc{net: n, name: name, killed: make(chan struct{}), wake: make(chan struct{}, 1)}
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
