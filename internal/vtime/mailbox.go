package vtime

import (
	"slices"

	"chc/internal/queue"
)

// Mailbox is an unbounded FIFO message queue usable from simulation context.
// Send never blocks; Recv suspends the calling process until a message is
// available. Messages are delivered in send order. A Mailbox belongs to one
// simulator and must not be shared across simulators.
type Mailbox[T any] struct {
	sim     *Sim
	queue   queue.FIFO[T]
	waiters queue.FIFO[*Proc]
}

// NewMailbox creates a mailbox on s.
func NewMailbox[T any](s *Sim) *Mailbox[T] { return &Mailbox[T]{sim: s} }

// Len reports queued (undelivered) messages.
func (m *Mailbox[T]) Len() int { return m.queue.Len() }

// Send enqueues v at the current virtual instant, waking one waiter if any.
// Send may be called from scheduler callbacks or any process.
func (m *Mailbox[T]) Send(v T) {
	m.queue.Push(v)
	if p, ok := m.waiters.Pop(); ok {
		m.sim.schedule(m.sim.now, nil, p)
	}
}

// Recv suspends p until a message is available and returns it.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.queue.Len() == 0 {
		m.waiters.Push(p)
		p.yield()
	}
	v, _ := m.queue.Pop()
	return v
}

// Drain drops all queued messages.
func (m *Mailbox[T]) Drain() { m.queue.Clear() }

// Future is a one-shot value handoff between simulation participants: the
// producer calls Resolve once; consumers block in Wait. It is the building
// block for simulated RPC replies.
type Future[T any] struct {
	sim      *Sim
	resolved bool
	value    T
	waiters  []*Proc
}

// NewFuture creates an unresolved future on s.
func NewFuture[T any](s *Sim) *Future[T] { return &Future[T]{sim: s} }

// Resolve sets the value and wakes all waiters. Resolving twice panics:
// futures model exactly-once replies.
func (f *Future[T]) Resolve(v T) {
	if f.resolved {
		panic("vtime: Future resolved twice")
	}
	f.resolved = true
	f.value = v
	for _, p := range f.waiters {
		f.sim.schedule(f.sim.now, nil, p)
	}
	f.waiters = nil
}

// Resolved reports whether the future has a value.
func (f *Future[T]) Resolved() bool { return f.resolved }

// Wait suspends p until the future resolves and returns the value.
func (f *Future[T]) Wait(p *Proc) T {
	for !f.resolved {
		f.waiters = append(f.waiters, p)
		p.yield()
	}
	return f.value
}

// WaitTimeout waits up to virtual duration d; ok is false on timeout.
func (f *Future[T]) WaitTimeout(p *Proc, d Duration) (v T, ok bool) {
	if f.resolved {
		return f.value, true
	}
	deadline := f.sim.now.Add(d)
	f.waiters = append(f.waiters, p)
	timer := f.sim.schedule(deadline, nil, p)
	p.yield()
	if f.resolved {
		timer.canceled = true
		return f.value, true
	}
	// Timed out: deregister, so a later Resolve cannot spuriously wake this
	// process out of whatever it blocks on next.
	f.waiters = slices.DeleteFunc(f.waiters, func(w *Proc) bool { return w == p })
	var zero T
	return zero, false
}
