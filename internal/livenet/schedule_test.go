package livenet

import "testing"

// TestScheduleAllocs: a Schedule and the fire of its callback, made up
// front, cost at most one allocation: the start of the callback's
// goroutine. The callback waits in the deadline queue the deliveries use,
// and the dispatcher waits on one timer, made once.
func TestScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	n := New(Config{Seed: 1})
	defer n.Shutdown()
	fired := make(chan struct{}, 1)
	fn := func() { fired <- struct{}{} }
	n.Schedule(0, fn) // start the dispatcher and grow the queue
	<-fired
	allocs := testing.AllocsPerRun(1000, func() {
		n.Schedule(0, fn)
		<-fired
	})
	t.Logf("Schedule and fire: %v allocs", allocs)
	if allocs > 1 {
		t.Fatalf("Schedule and fire: %v allocs, want <= 1", allocs)
	}
}
