package transport_test

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"chc/internal/livenet"
	"chc/internal/simnet"
	"chc/internal/transport"
	"chc/internal/vtime"
)

// linkRun is what one substrate made of the script in runLinkScript.
type linkRun struct {
	received []int                // payloads landed on b, sorted
	answered []int                // bodies of the calls that returned their reply
	stats    map[string][3]uint64 // sent, delivered, dropped per link
}

// runLinkScript drives one fixed sequence of sends a -> b and calls
// cli -> srv over tr, letting every copy of each land before the next, so
// the link draws happen in script order on any substrate.
func runLinkScript(tr transport.Transport) linkRun {
	const (
		ops     = 60
		timeout = 100 * time.Millisecond
		settle  = 25 * time.Millisecond
	)
	var received []int
	tr.Spawn("rx", func(p transport.Proc) {
		ep := tr.Endpoint("b")
		for {
			received = append(received, ep.Recv(p).Payload.(int))
		}
	})
	tr.Spawn("server", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			if cm, ok := ep.Recv(p).Payload.(transport.Call); ok {
				cm.Reply(cm.Body().(int), 8)
			}
		}
	})
	answered := make([]bool, ops)
	for i := range ops {
		if i%2 == 0 {
			tr.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
		} else {
			done := tr.NewSignal()
			tr.Spawn("client", func(p transport.Proc) {
				v, ok := tr.Call(p, "cli", "srv", i, 8, timeout)
				answered[i] = ok && v.(int) == i
				done.Resolve(nil)
			})
			tr.Drive(done, 2*timeout)
		}
		tr.RunFor(settle)
	}
	run := linkRun{stats: make(map[string][3]uint64)}
	for _, l := range [][2]string{{"a", "b"}, {"cli", "srv"}, {"srv", "cli"}} {
		s, d, x := tr.LinkStats(l[0], l[1])
		run.stats[l[0]+"->"+l[1]] = [3]uint64{s, d, x}
	}
	tr.Shutdown()
	sort.Ints(received)
	run.received = received
	for i, ok := range answered {
		if ok {
			run.answered = append(run.answered, i)
		}
	}
	return run
}

// TestLinkSameOnSimAndLive: with one seed and one script, the DES and the
// live substrate draw the same link for every message and for both legs
// of every call, so they land the same messages, answer the same calls
// and count the same on every link.
func TestLinkSameOnSimAndLive(t *testing.T) {
	const seed = 5
	cfg := transport.LinkConfig{
		Jitter:       time.Millisecond,
		LossProb:     0.2,
		DupProb:      0.3,
		ReorderProb:  0.3,
		ReorderDelay: 2 * time.Millisecond,
	}
	sim := runLinkScript(simnet.New(vtime.NewSim(seed), cfg))
	live := runLinkScript(livenet.New(livenet.Config{Seed: seed, DefaultLink: cfg}))
	for name, s := range sim.stats {
		if s[2] == 0 || s[1]+s[2] <= s[0] {
			t.Errorf("DES link %s counted sent/delivered/dropped %v: the script drew no loss or no duplicate", name, s)
		}
	}
	if !reflect.DeepEqual(sim.stats, live.stats) {
		t.Errorf("link stats differ:\n DES  %v\n live %v", sim.stats, live.stats)
	}
	if !reflect.DeepEqual(sim.received, live.received) {
		t.Errorf("received multisets differ:\n DES  %v\n live %v", sim.received, live.received)
	}
	if !reflect.DeepEqual(sim.answered, live.answered) {
		t.Errorf("answered calls differ:\n DES  %v\n live %v", sim.answered, live.answered)
	}
}
