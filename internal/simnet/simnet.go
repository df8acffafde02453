package simnet

import (
	"time"

	"chc/internal/transport"
	"chc/internal/vtime"
)

// Message is a unit of delivery between endpoints (the shared transport
// message type).
type Message = transport.Message

// LinkConfig describes one direction of a link (the shared transport link
// model).
type LinkConfig = transport.LinkConfig

// link is the runtime state for one directed endpoint pair.
type link struct {
	cfg    LinkConfig
	txFree vtime.Time // when the link's transmitter is next idle
	up     bool

	// Stats
	Sent, Delivered, Dropped, Duplicated, Reordered uint64
}

// Endpoint is a named attachment point with an inbox of messages.
type Endpoint struct {
	name  string
	net   *Network
	Inbox *vtime.Mailbox[Message]
	down  bool
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Recv implements transport.Endpoint on top of the typed inbox.
func (e *Endpoint) Recv(p transport.Proc) Message { return e.Inbox.Recv(p.(*vtime.Proc)) }

// Len implements transport.Endpoint.
func (e *Endpoint) Len() int { return e.Inbox.Len() }

// Network is a set of endpoints and directed links.
type Network struct {
	sim        *vtime.Sim
	endpoints  map[string]*Endpoint
	links      map[[2]string]*link
	defaultCfg LinkConfig
}

// New creates a network whose unspecified links use def.
func New(sim *vtime.Sim, def LinkConfig) *Network {
	return &Network{
		sim:        sim,
		endpoints:  make(map[string]*Endpoint),
		links:      make(map[[2]string]*link),
		defaultCfg: def,
	}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *vtime.Sim { return n.sim }

// Endpoint returns (creating on first use) the named endpoint.
func (n *Network) Endpoint(name string) transport.Endpoint { return n.endpoint(name) }

func (n *Network) endpoint(name string) *Endpoint {
	if e, ok := n.endpoints[name]; ok {
		return e
	}
	e := &Endpoint{name: name, net: n, Inbox: vtime.NewMailbox[Message](n.sim, name+".inbox")}
	n.endpoints[name] = e
	return e
}

// SetLink configures the directed link from -> to.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	n.links[[2]string{from, to}] = &link{cfg: cfg, up: true}
}

func (n *Network) linkFor(from, to string) *link {
	key := [2]string{from, to}
	if l, ok := n.links[key]; ok {
		return l
	}
	l := &link{cfg: n.defaultCfg, up: true}
	n.links[key] = l
	return l
}

// SetLinkUp raises or cuts the directed link from -> to (partition control).
func (n *Network) SetLinkUp(from, to string, up bool) {
	n.linkFor(from, to).up = up
}

// Crash marks an endpoint down: all traffic to or from it is dropped and its
// inbox is cleared. Used for fail-stop failure injection.
func (n *Network) Crash(name string) {
	e := n.endpoint(name)
	e.down = true
	e.Inbox.Drain()
}

// Restart brings a crashed endpoint back (with an empty inbox, as a fresh
// process would have).
func (n *Network) Restart(name string) {
	e := n.endpoint(name)
	e.down = false
	e.Inbox.Drain()
}

// LinkStats returns delivery statistics for the directed link.
func (n *Network) LinkStats(from, to string) (sent, delivered, dropped uint64) {
	l := n.linkFor(from, to)
	return l.Sent, l.Delivered, l.Dropped
}

// Send transmits msg from msg.From to msg.To, applying the link model.
// It never blocks; delivery (if any) is scheduled on the destination inbox.
func (n *Network) Send(msg Message) {
	src := n.endpoint(msg.From)
	dst := n.endpoint(msg.To)
	l := n.linkFor(msg.From, msg.To)
	l.Sent++
	if src.down || dst.down || !l.up {
		l.Dropped++
		return
	}
	rng := n.sim.Rand()
	if l.cfg.LossProb > 0 && rng.Float64() < l.cfg.LossProb {
		l.Dropped++
		return
	}
	delay := l.cfg.Latency
	if l.cfg.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(l.cfg.Jitter)))
	}
	// Serialization: the transmitter is busy for size*8/bandwidth; messages
	// queue behind each other (NIC queueing).
	if l.cfg.BandwidthBps > 0 && msg.Size > 0 {
		tx := time.Duration(int64(msg.Size) * 8 * int64(time.Second) / l.cfg.BandwidthBps)
		start := n.sim.Now()
		if l.txFree > start {
			start = l.txFree
		}
		l.txFree = start.Add(tx)
		delay += l.txFree.Sub(n.sim.Now())
	}
	if l.cfg.ReorderProb > 0 && rng.Float64() < l.cfg.ReorderProb {
		delay += l.cfg.ReorderDelay
		l.Reordered++
	}
	deliver := func(m Message) {
		n.sim.Schedule(delay, func() {
			// Re-check destination liveness at delivery time.
			if dst.down {
				l.Dropped++
				return
			}
			l.Delivered++
			dst.Inbox.Send(m)
		})
	}
	deliver(msg)
	if l.cfg.DupProb > 0 && rng.Float64() < l.cfg.DupProb {
		l.Duplicated++
		deliver(msg)
	}
}

// Call performs a simulated RPC: it sends req from client to server carrying
// a reply future, then blocks p until the server resolves the future or the
// timeout elapses. Servers receive a *CallMsg and must call Reply exactly
// once (or never, to model a lost reply).
func (n *Network) Call(p transport.Proc, from, to string, payload any, size int, timeout time.Duration) (any, bool) {
	fut := vtime.NewFuture[any](n.sim)
	cm := &CallMsg{Payload: payload, fut: fut, net: n, from: from, to: to}
	n.Send(Message{From: from, To: to, Payload: cm, Size: size})
	return fut.WaitTimeout(p.(*vtime.Proc), timeout)
}

// CallMsg is the payload wrapper for simulated RPCs.
type CallMsg struct {
	Payload any
	fut     *vtime.Future[any]
	net     *Network
	from    string // original caller
	to      string // original callee (the replier)
}

// From returns the calling endpoint's name.
func (c *CallMsg) From() string { return c.from }

// Body implements transport.Call.
func (c *CallMsg) Body() any { return c.Payload }

// Reply resolves the caller's future after the return path latency of the
// link to->from. replySize models the reply message size.
func (c *CallMsg) Reply(v any, replySize int) {
	l := c.net.linkFor(c.to, c.from)
	src := c.net.endpoint(c.to)
	dst := c.net.endpoint(c.from)
	l.Sent++
	if src.down || dst.down || !l.up {
		l.Dropped++
		return
	}
	rng := c.net.sim.Rand()
	if l.cfg.LossProb > 0 && rng.Float64() < l.cfg.LossProb {
		l.Dropped++
		return
	}
	delay := l.cfg.Latency
	if l.cfg.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(l.cfg.Jitter)))
	}
	if l.cfg.BandwidthBps > 0 && replySize > 0 {
		tx := time.Duration(int64(replySize) * 8 * int64(time.Second) / l.cfg.BandwidthBps)
		start := c.net.sim.Now()
		if l.txFree > start {
			start = l.txFree
		}
		l.txFree = start.Add(tx)
		delay += l.txFree.Sub(c.net.sim.Now())
	}
	l.Delivered++
	fut := c.fut
	c.net.sim.Schedule(delay, func() {
		if dst.down {
			return
		}
		if !fut.Resolved() {
			fut.Resolve(v)
		}
	})
}

// --- transport.Transport implementation --------------------------------------
//
// The methods below complete the Transport interface on *Network, exposing
// the simulator's execution primitives behind the substrate-neutral API the
// chain runtime is written against.

// Spawn starts a simulated process.
func (n *Network) Spawn(name string, fn func(transport.Proc)) transport.Handle {
	return n.sim.Spawn(name, func(p *vtime.Proc) { fn(p) })
}

// Kill fail-stops a spawned process at its next blocking point.
func (n *Network) Kill(h transport.Handle) {
	if p, ok := h.(*vtime.Proc); ok && p != nil {
		n.sim.Kill(p)
	}
}

// Schedule runs fn once after virtual delay d.
func (n *Network) Schedule(d time.Duration, fn func()) { n.sim.Schedule(d, fn) }

// Now returns the current virtual time.
func (n *Network) Now() transport.Time { return n.sim.Now() }

// Intn draws from the simulator's deterministic random source.
func (n *Network) Intn(v int64) int64 { return n.sim.Rand().Int63n(v) }

// simSignal adapts vtime.Future to transport.Signal with first-wins
// Resolve semantics.
type simSignal struct{ fut *vtime.Future[any] }

func (s *simSignal) Resolve(v any) {
	if !s.fut.Resolved() {
		s.fut.Resolve(v)
	}
}
func (s *simSignal) Resolved() bool { return s.fut.Resolved() }
func (s *simSignal) WaitTimeout(p transport.Proc, d time.Duration) (any, bool) {
	return s.fut.WaitTimeout(p.(*vtime.Proc), d)
}

// NewSignal creates a one-shot handoff on the simulator.
func (n *Network) NewSignal() transport.Signal {
	return &simSignal{fut: vtime.NewFuture[any](n.sim)}
}

// RunFor advances the simulation by virtual duration d.
func (n *Network) RunFor(d time.Duration) { n.sim.RunFor(d) }

// Drive runs exactly timeout of virtual time and reports whether sig
// resolved. The horizon is fixed regardless of when the signal fires so the
// virtual clock after Drive never depends on the signal (determinism).
func (n *Network) Drive(sig transport.Signal, timeout time.Duration) bool {
	n.sim.RunFor(timeout)
	return sig.Resolved()
}

// Shutdown is a no-op: simulated processes only run while the caller
// drives the scheduler, so there is nothing to join.
func (n *Network) Shutdown() {}

// Live reports that this is the virtual-time substrate.
func (n *Network) Live() bool { return false }
