package vtime

// Mailbox is an unbounded FIFO message queue usable from simulation context.
// Send never blocks; Recv suspends the calling process until a message is
// available. Messages are delivered in send order. A Mailbox belongs to one
// simulator and must not be shared across simulators.
type Mailbox[T any] struct {
	sim     *Sim
	name    string
	queue   []T
	waiters []*recvWaiter
	closed  bool
}

type recvWaiter struct {
	proc     *Proc
	woken    bool
	deadline bool // set when the waiter was woken by timeout, not data
}

// NewMailbox creates a mailbox on s.
func NewMailbox[T any](s *Sim, name string) *Mailbox[T] {
	return &Mailbox[T]{sim: s, name: name}
}

// Len reports queued (undelivered) messages.
func (m *Mailbox[T]) Len() int { return len(m.queue) }

// Name returns the mailbox name.
func (m *Mailbox[T]) Name() string { return m.name }

// Send enqueues v at the current virtual instant, waking one waiter if any.
// Send may be called from scheduler callbacks or any process.
func (m *Mailbox[T]) Send(v T) {
	m.queue = append(m.queue, v)
	m.wakeOne()
}

// SendAfter enqueues v after virtual delay d.
func (m *Mailbox[T]) SendAfter(d Duration, v T) {
	m.sim.Schedule(d, func() { m.Send(v) })
}

func (m *Mailbox[T]) wakeOne() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if w.woken {
			continue // already woken by timeout
		}
		w.woken = true
		m.sim.schedule(m.sim.now, nil, w.proc)
		return
	}
}

// Recv suspends p until a message is available and returns it.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for len(m.queue) == 0 {
		w := &recvWaiter{proc: p}
		m.waiters = append(m.waiters, w)
		p.yield()
		w.woken = true
	}
	v := m.queue[0]
	var zero T
	m.queue[0] = zero
	m.queue = m.queue[1:]
	return v
}

// RecvTimeout suspends p until a message arrives or virtual duration d
// elapses. ok is false on timeout.
func (m *Mailbox[T]) RecvTimeout(p *Proc, d Duration) (v T, ok bool) {
	if len(m.queue) > 0 {
		return m.Recv(p), true
	}
	w := &recvWaiter{proc: p}
	m.waiters = append(m.waiters, w)
	timer := m.sim.schedule(m.sim.now.Add(d), nil, p)
	// Mark the timer as a wake source; whichever fires first resumes p.
	p.yield()
	if len(m.queue) > 0 {
		// Data arrived (possibly exactly at the deadline); consume it.
		w.woken = true
		timer.canceled = true
		return m.Recv(p), true
	}
	// Timed out.
	w.woken = true
	w.deadline = true
	var zero T
	return zero, false
}

// Drain removes and returns all queued messages without blocking.
func (m *Mailbox[T]) Drain() []T {
	out := m.queue
	m.queue = nil
	return out
}

// Filter removes queued messages for which keep returns false, preserving
// order. It is the primitive behind CHC's framework-side queue surgery
// (duplicate suppression deletes messages before downstream consumption).
func (m *Mailbox[T]) Filter(keep func(T) bool) (removed int) {
	kept := m.queue[:0]
	for _, v := range m.queue {
		if keep(v) {
			kept = append(kept, v)
		} else {
			removed++
		}
	}
	// Zero the tail so filtered values don't leak.
	var zero T
	for i := len(kept); i < len(m.queue); i++ {
		m.queue[i] = zero
	}
	m.queue = kept
	return removed
}

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

// ResolveAfter resolves the future after virtual delay d.
func (f *Future[T]) ResolveAfter(d Duration, v T) {
	f.sim.Schedule(d, func() { f.Resolve(v) })
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
	for i, w := range f.waiters {
		if w == p {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			break
		}
	}
	var zero T
	return zero, false
}

// Cond is a broadcast-style condition for simulation processes: waiters
// block until the next Broadcast after they began waiting.
type Cond struct {
	sim     *Sim
	waiters []*Proc
}

// NewCond creates a condition variable on s.
func NewCond(s *Sim) *Cond { return &Cond{sim: s} }

// Wait suspends p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.yield()
}

// Broadcast wakes all current waiters at the current virtual instant.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		c.sim.schedule(c.sim.now, nil, p)
	}
}
