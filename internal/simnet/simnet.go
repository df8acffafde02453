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

// Endpoint is a named attachment point with an inbox of messages.
type Endpoint struct {
	name  string
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
	sim       *vtime.Sim
	endpoints map[string]*Endpoint
	links     *transport.Links
}

// New creates a network whose unspecified links use def.
func New(sim *vtime.Sim, def LinkConfig) *Network {
	return &Network{
		sim:       sim,
		endpoints: make(map[string]*Endpoint),
		links:     transport.NewLinks(def),
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
	e := &Endpoint{name: name, Inbox: vtime.NewMailbox[Message](n.sim)}
	n.endpoints[name] = e
	return e
}

// SetLink configures the directed link from -> to.
func (n *Network) SetLink(from, to string, cfg LinkConfig) { n.links.Set(from, to, cfg) }

// SetLinkUp raises or cuts the directed link from -> to (partition control).
func (n *Network) SetLinkUp(from, to string, up bool) { n.links.SetUp(from, to, up) }

// Crash marks an endpoint down: all traffic to or from it is dropped and its
// inbox is cleared (fail-stop failure injection). Restart brings it back
// with an empty inbox, as a fresh process would have.
func (n *Network) Crash(name string)   { n.setDown(name, true) }
func (n *Network) Restart(name string) { n.setDown(name, false) }

func (n *Network) setDown(name string, down bool) {
	e := n.endpoint(name)
	e.down = down
	e.Inbox.Drain()
}

// LinkStats returns delivery statistics for the directed link.
func (n *Network) LinkStats(from, to string) (sent, delivered, dropped uint64) {
	return n.links.Stats(from, to)
}

// Send transmits msg from msg.From to msg.To, applying the link model.
// It never blocks; delivery (if any) is scheduled on the destination inbox.
func (n *Network) Send(msg Message) {
	n.transmit(msg.From, msg.To, msg.Size, func(dst *Endpoint) { dst.Inbox.Send(msg) })
}

// transmit plans one message of size bytes on the link from -> to and
// runs land for each copy that reaches the destination while it is up.
func (n *Network) transmit(from, to string, size int, land func(dst *Endpoint)) {
	src, dst := n.endpoint(from), n.endpoint(to)
	l := n.links.Get(from, to)
	delay, copies := l.Plan(n.sim, size, !src.down && !dst.down, n.sim.Rand())
	arrive := func() {
		if l.Land(!dst.down) {
			land(dst)
		}
	}
	for range copies {
		n.sim.Schedule(delay, arrive)
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

// Reply resolves the caller's future when the reply lands over the link
// to -> from. replySize models the reply message size.
func (c *CallMsg) Reply(v any, replySize int) {
	c.net.transmit(c.to, c.from, replySize, func(*Endpoint) {
		if !c.fut.Resolved() {
			c.fut.Resolve(v)
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
