package vtime

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.Schedule(30*time.Microsecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Microsecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Microsecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Microsecond) {
		t.Fatalf("Now = %v, want 30µs", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestProcSleep(t *testing.T) {
	s := NewSim(1)
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = p.Now()
		p.Sleep(5 * time.Millisecond)
		wake = p.Now()
	})
	s.Run()
	if wake != Time(10*time.Millisecond) {
		t.Fatalf("woke at %v, want 10ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	s := NewSim(1)
	var trace []string
	mk := func(name string, d Duration, n int) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(d)
				trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now()))
			}
		})
	}
	mk("a", 2*time.Millisecond, 3)
	mk("b", 3*time.Millisecond, 2)
	s.Run()
	// At the 6ms tie, b wins: b scheduled its 6ms wake (at t=3ms) before a
	// scheduled its own (at t=4ms), and ties break by schedule order.
	want := []string{"a@2ms", "b@3ms", "a@4ms", "b@6ms", "a@6ms"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestMailboxSendRecv(t *testing.T) {
	s := NewSim(1)
	mb := NewMailbox[int](s)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Millisecond)
			mb.Send(i * 10)
		}
	})
	s.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

// TestMailboxDrainedAllocs: a send and a receive on a box that runs dry
// between messages allocate nothing: the box keeps its array.
func TestMailboxDrainedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	s := NewSim(1)
	mb := NewMailbox[int](s)
	allocs := -1.0
	s.Spawn("p", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() {
			mb.Send(7)
			if v := mb.Recv(p); v != 7 {
				t.Errorf("received %d, want 7", v)
			}
		})
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("send+recv on a drained box: %v allocs, want 0", allocs)
	}
}

func TestMailboxRecvBeforeSend(t *testing.T) {
	s := NewSim(1)
	mb := NewMailbox[string](s)
	var got string
	var at Time
	s.Spawn("c", func(p *Proc) {
		got = mb.Recv(p)
		at = p.Now()
	})
	s.Schedule(7*time.Millisecond, func() { mb.Send("hello") })
	s.Run()
	if got != "hello" || at != Time(7*time.Millisecond) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestFuture(t *testing.T) {
	s := NewSim(1)
	f := NewFuture[string](s)
	var got string
	var at Time
	s.Spawn("waiter", func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	s.Schedule(3*time.Millisecond, func() { f.Resolve("done") })
	s.Run()
	if got != "done" || at != Time(3*time.Millisecond) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	s := NewSim(1)
	f := NewFuture[int](s)
	var ok bool
	s.Spawn("w", func(p *Proc) {
		_, ok = f.WaitTimeout(p, time.Millisecond)
	})
	s.Schedule(5*time.Millisecond, func() { f.Resolve(1) })
	s.Run()
	if ok {
		t.Fatal("wait should have timed out")
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	s := NewSim(1)
	f := NewFuture[int](s)
	count := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			if f.Wait(p) == 9 {
				count++
			}
		})
	}
	s.Schedule(time.Millisecond, func() { f.Resolve(9) })
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestKillBlockedProcess(t *testing.T) {
	s := NewSim(1)
	mb := NewMailbox[int](s)
	reached := false
	p := s.Spawn("victim", func(p *Proc) {
		mb.Recv(p)
		reached = true
	})
	s.Schedule(time.Millisecond, func() { s.Kill(p) })
	s.Run()
	if reached {
		t.Fatal("killed process continued past Recv")
	}
	if !p.Exited() {
		t.Fatal("killed process did not exit")
	}
}

func TestKillSleepingProcess(t *testing.T) {
	s := NewSim(1)
	var last Time
	p := s.Spawn("victim", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			last = p.Now()
		}
	})
	s.Schedule(5500*time.Microsecond, func() { s.Kill(p) })
	s.Run()
	if last != Time(5*time.Millisecond) {
		t.Fatalf("last wake at %v, want 5ms", last)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewSim(1)
	fired := 0
	s.Schedule(time.Millisecond, func() { fired++ })
	s.Schedule(10*time.Millisecond, func() { fired++ })
	s.RunUntil(Time(5 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now = %v, want 5ms", s.Now())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestSpawnAfter(t *testing.T) {
	s := NewSim(1)
	var started Time
	s.SpawnAfter(4*time.Millisecond, "late", func(p *Proc) { started = p.Now() })
	s.Run()
	if started != Time(4*time.Millisecond) {
		t.Fatalf("started at %v, want 4ms", started)
	}
}

// simDigest runs a fixed mixed workload and returns a digest of the event
// trace, used to check determinism.
func simDigest(seed int64) string {
	s := NewSim(seed)
	mb := NewMailbox[int](s)
	digest := ""
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 8; j++ {
				d := Duration(s.Rand().Intn(1000)) * time.Microsecond
				p.Sleep(d)
				mb.Send(i*100 + j)
			}
		})
	}
	s.Spawn("sink", func(p *Proc) {
		for k := 0; k < 32; k++ {
			v := mb.Recv(p)
			digest += fmt.Sprintf("%d@%d;", v, p.Now())
		}
	})
	s.Run()
	return digest
}

// TestDeterminism: identical seeds produce identical event traces.
func TestDeterminism(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		return simDigest(seed) == simDigest(seed)
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestClockMonotonic: virtual time never decreases across a random workload.
func TestClockMonotonic(t *testing.T) {
	if err := quick.Check(func(seed int64, delays []uint16) bool {
		s := NewSim(seed)
		last := Time(0)
		mono := true
		for _, d := range delays {
			d := Duration(d) * time.Microsecond
			s.Schedule(d, func() {
				if s.Now() < last {
					mono = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return mono
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	s := NewSim(1)
	s.Spawn("bad", func(p *Proc) { panic("boom") })
	s.Run()
}
