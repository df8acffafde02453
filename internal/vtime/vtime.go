package vtime

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"chc/internal/queue"
)

// Time is a virtual instant, in nanoseconds since simulation start.
type Time int64

// Duration aliases time.Duration so callers can use time.Millisecond etc.
type Duration = time.Duration

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled occurrence: either a callback or a process wake-up.
type event struct {
	fn   func() // non-nil for callback events
	proc *Proc  // non-nil for wake events
	// canceled events stay in the queue but are skipped when popped.
	canceled bool
}

// Sim is a discrete-event simulator. The zero value is not usable; construct
// with NewSim.
type Sim struct {
	now Time
	// events pops in (time, schedule order): ties between events at one
	// instant break by schedule order.
	events  queue.Deadline[*event]
	rng     *rand.Rand
	yieldCh chan yieldMsg // processes signal the scheduler here
	procSeq int
	procs   map[int]*Proc
}

type yieldMsg struct {
	exited bool
	panicV any // non-nil if the process panicked with a real error
}

// NewSim returns a simulator seeded for deterministic pseudo-randomness.
func NewSim(seed int64) *Sim {
	return &Sim{
		rng:     rand.New(rand.NewSource(seed)),
		yieldCh: make(chan yieldMsg),
		procs:   make(map[int]*Proc),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. It must only be
// used from simulation context (callbacks or processes).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// schedule inserts an event and returns it (for cancellation).
func (s *Sim) schedule(at Time, fn func(), p *Proc) *event {
	if at < s.now {
		at = s.now
	}
	ev := &event{fn: fn, proc: p}
	s.events.Push(int64(at), ev)
	return ev
}

// Schedule runs fn at virtual time s.Now()+d. fn executes in scheduler
// context and must not block; use Spawn for blocking logic.
func (s *Sim) Schedule(d Duration, fn func()) {
	s.schedule(s.now.Add(d), fn, nil)
}

// ScheduleAt runs fn at absolute virtual time at (clamped to now).
func (s *Sim) ScheduleAt(at Time, fn func()) {
	s.schedule(at, fn, nil)
}

// killSentinel is the panic value used to unwind killed processes.
type killSentinel struct{ name string }

// Proc is a simulated process: a goroutine that runs ordinary blocking code
// against virtual time. All Proc methods must be called from the process's
// own goroutine unless documented otherwise.
type Proc struct {
	sim     *Sim
	id      int
	name    string
	resume  chan struct{}
	started bool
	exited  bool
	killed  bool
	fn      func(*Proc)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a process that begins executing fn at the current virtual
// time (after already-scheduled events for this instant).
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc { return s.SpawnAfter(0, name, fn) }

// SpawnAfter creates a process that begins executing fn after delay d.
func (s *Sim) SpawnAfter(d Duration, name string, fn func(*Proc)) *Proc {
	s.procSeq++
	p := &Proc{sim: s, id: s.procSeq, name: name, resume: make(chan struct{}), fn: fn}
	s.procs[p.id] = p
	s.schedule(s.now.Add(d), nil, p)
	return p
}

// Kill marks the process for termination. If it is blocked, it is woken and
// unwound at the current virtual instant. Killing an exited process is a
// no-op. Kill may be called from scheduler context or another process.
func (s *Sim) Kill(p *Proc) {
	if p.exited || p.killed {
		return
	}
	p.killed = true
	if p.started && !p.exited {
		// Wake it so the unwind runs; the wake event is what delivers the kill.
		s.schedule(s.now, nil, p)
	}
}

// Exited reports whether the process function has returned.
func (p *Proc) Exited() bool { return p.exited }

// yield transfers control to the scheduler and blocks until resumed.
// On resume, if the process has been killed it unwinds via panic; the
// sentinel is recovered by the spawn wrapper.
func (p *Proc) yield() {
	p.sim.yieldCh <- yieldMsg{}
	<-p.resume
	if p.killed {
		panic(killSentinel{p.name})
	}
}

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d Duration) { p.SleepUntil(p.sim.now.Add(d)) }

// SleepUntil suspends the process until absolute virtual time at.
func (p *Proc) SleepUntil(at Time) {
	p.sim.schedule(at, nil, p)
	p.yield()
}

// run starts or resumes the process for one scheduling quantum and waits for
// it to block or exit. Returns true if the process exited.
func (s *Sim) runProc(p *Proc) bool {
	if p.exited {
		return true
	}
	if !p.started {
		p.started = true
		go func() {
			defer func() {
				r := recover()
				p.exited = true
				delete(s.procs, p.id)
				if r != nil {
					if _, ok := r.(killSentinel); !ok {
						s.yieldCh <- yieldMsg{exited: true, panicV: r}
						return
					}
				}
				s.yieldCh <- yieldMsg{exited: true}
			}()
			p.fn(p)
		}()
	} else {
		p.resume <- struct{}{}
	}
	msg := <-s.yieldCh
	if msg.panicV != nil {
		panic(fmt.Sprintf("vtime: process %q panicked: %v", p.name, msg.panicV))
	}
	return msg.exited
}

// Step executes the next pending event. It returns false when no events
// remain.
func (s *Sim) Step() bool { return s.step(math.MaxInt64) }

// step executes the next pending event due by until, skipping canceled
// ones; false when there is none.
func (s *Sim) step(until Time) bool {
	for {
		at, ev, ok := s.events.Front()
		if !ok || Time(at) > until {
			return false
		}
		s.events.Pop()
		if ev.canceled {
			continue
		}
		s.now = Time(at)
		if ev.proc != nil {
			s.runProc(ev.proc)
		} else if ev.fn != nil {
			ev.fn()
		}
		return true
	}
}

// Run executes events until the event queue drains.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= until, then sets the clock to
// until. Events scheduled beyond the horizon remain pending.
func (s *Sim) RunUntil(until Time) {
	for s.step(until) {
	}
	if s.now < until {
		s.now = until
	}
}

// RunFor advances the simulation by virtual duration d.
func (s *Sim) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// LiveProcs returns the names of processes that have not exited, sorted.
// Intended for tests and deadlock diagnostics.
func (s *Sim) LiveProcs() []string {
	names := make([]string, 0, len(s.procs))
	for _, p := range s.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
