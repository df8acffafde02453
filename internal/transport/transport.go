// Package transport abstracts the execution-and-messaging substrate the
// CHC chain runs on. Three implementations exist:
//
//   - internal/simnet: the deterministic discrete-event simulation
//     (virtual time, single scheduler) — the correctness oracle;
//   - internal/livenet: real goroutines, channels and wall-clock time —
//     the performance artifact;
//   - internal/netnet: real TCP sockets between OS processes, layered on
//     the livenet core, with payloads crossing the wire codec (Wire*,
//     RegisterWire) and endpoints placed on nodes by a NodeMap.
//
// runtime.Chain, Root, Instance, the policy DAG and store.Client are
// written against these interfaces only, so the same protocol code runs
// unmodified on any substrate (ChainConfig.Substrate selects it).
package transport

import (
	"time"

	"chc/internal/vtime"
)

// Time is nanoseconds since the transport started: virtual in simnet,
// wall-clock-since-start in livenet.
type Time = vtime.Time

// Message is a unit of delivery between endpoints.
type Message struct {
	From    string
	To      string
	Payload any
	Size    int // wire bytes; used for bandwidth/serialization modeling
}

// Proc is the execution context handed to spawned processes: a simulated
// process (vtime.Proc) or a live goroutine wrapper. Blocking methods must
// only be called from the process's own goroutine.
type Proc interface {
	Name() string
	Now() Time
	Sleep(d time.Duration)
}

// Endpoint is a named attachment point receiving messages in FIFO order
// per link.
type Endpoint interface {
	Name() string
	// Recv suspends p until a message is available.
	Recv(p Proc) Message
	// Len reports queued (undelivered) messages.
	Len() int
}

// Call is an in-flight RPC as seen by the callee: servers receive a Call
// as a message payload and must Reply exactly once (or never, to model a
// lost reply).
type Call interface {
	// From returns the calling endpoint's name.
	From() string
	// Body returns the request payload.
	Body() any
	// Reply resolves the caller, applying the return link's model.
	// Replying more than once is a no-op after the first.
	Reply(v any, size int)
}

// Signal is a one-shot value handoff (a future): Resolve first-wins,
// later calls are no-ops.
type Signal interface {
	Resolve(v any)
	Resolved() bool
	// WaitTimeout suspends p until resolved or d elapses; ok is false on
	// timeout.
	WaitTimeout(p Proc, d time.Duration) (v any, ok bool)
}

// Handle identifies a spawned process for Kill. Opaque to callers.
type Handle any

// BurstSender is an optional transport capability: delivering a burst of
// messages with one synchronization round per destination instead of one
// per message. The link model (loss, duplication, latency, bandwidth) is
// still applied per message, so a burst is observationally a sequence of
// Sends — only the locking is amortized. FIFO holds within a burst and
// across consecutive bursts on the same link, exactly as for Send.
type BurstSender interface {
	SendBurst(msgs []Message)
}

// SendBurst delivers msgs through t, using the native burst path when the
// transport provides one and falling back to per-message Send otherwise.
// The fallback is the semantic definition of a burst: the DES substrate
// never implements BurstSender, so burst-enabled callers remain
// byte-identical with their unbatched selves under simulation.
func SendBurst(t Transport, msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	if bs, ok := t.(BurstSender); ok {
		bs.SendBurst(msgs)
		return
	}
	for _, m := range msgs {
		t.Send(m)
	}
}

// Transport is the substrate interface. All methods are safe to call from
// any process of the transport; in simnet they must be called from
// simulation context or between drive steps (the DES is single-threaded).
type Transport interface {
	// Endpoint returns (creating on first use) the named endpoint.
	Endpoint(name string) Endpoint
	// Send transmits msg, applying the link model. It never blocks.
	Send(Message)
	// Call performs an RPC from->to and blocks p until the callee replies
	// or timeout elapses (ok false).
	Call(p Proc, from, to string, payload any, size int, timeout time.Duration) (any, bool)

	// Crash marks an endpoint down (fail-stop): traffic to or from it is
	// dropped and its inbox is cleared. Restart brings it back empty.
	Crash(name string)
	Restart(name string)

	// Link configuration and statistics (latency/loss/dup injection,
	// partitions).
	SetLink(from, to string, cfg LinkConfig)
	SetLinkUp(from, to string, up bool)
	LinkStats(from, to string) (sent, delivered, dropped uint64)

	// Spawn starts a process running fn; Kill fail-stops it at its next
	// blocking point.
	Spawn(name string, fn func(Proc)) Handle
	Kill(h Handle)
	// Schedule runs fn once after d. On the DES fn runs in scheduler
	// context and must not block. On livenet and netnet fn waits in the
	// queue of delayed deliveries, then starts on its own goroutine: it
	// does its own synchronization, and may block. Shutdown cancels it.
	Schedule(d time.Duration, fn func())

	Now() Time
	// Intn draws from the transport's random source (deterministic in
	// simnet, seeded-concurrent in livenet).
	Intn(n int64) int64
	NewSignal() Signal

	// RunFor advances the substrate: the DES executes d of virtual time;
	// livenet sleeps d of real time (the goroutines advance themselves).
	RunFor(d time.Duration)
	// Drive advances the substrate up to timeout or until sig resolves,
	// reporting whether it resolved. The DES runs exactly timeout of
	// virtual time (determinism: the horizon does not depend on when the
	// signal fired); livenet blocks on the signal.
	Drive(sig Signal, timeout time.Duration) bool

	// Shutdown fail-stops every process and timer and waits for them to
	// exit. After Shutdown returns, component state is safe to read from
	// the caller (happens-before established). No-op on the DES, whose
	// processes only run while the caller drives it.
	Shutdown()

	// Live reports whether this transport runs on real time.
	Live() bool
}
