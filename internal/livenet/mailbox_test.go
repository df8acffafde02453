package livenet

import (
	"testing"

	"chc/internal/transport"
)

// TestMailboxKeepsArray: a box that empties between messages keeps its
// array, so alternating push and pop allocates nothing.
func TestMailboxKeepsArray(t *testing.T) {
	m := newMailbox()
	msg := transport.Message{From: "a", To: "b", Size: 8}
	m.push(msg)
	m.pop()
	allocs := testing.AllocsPerRun(1000, func() {
		m.push(msg)
		if _, ok := m.pop(); !ok {
			t.Fatal("pushed message not popped")
		}
	})
	if allocs != 0 {
		t.Fatalf("push+pop on a drained box: %v allocs, want 0", allocs)
	}
}

// TestMailboxBoundedByPeakDepth: a long run with a steady backlog (one in,
// one out, behind a queue of depth messages) keeps the array within twice
// the peak depth, and delivers in order.
func TestMailboxBoundedByPeakDepth(t *testing.T) {
	for _, depth := range []int{1, 10, 100, 1000} {
		m := newMailbox()
		in, out := 0, 0
		push := func() {
			m.push(transport.Message{Payload: in})
			in++
		}
		pop := func() {
			msg, ok := m.pop()
			if !ok || msg.Payload.(int) != out {
				t.Fatalf("depth %d: popped %v ok=%v, want %d", depth, msg.Payload, ok, out)
			}
			out++
		}
		for i := 0; i < depth; i++ {
			push()
		}
		peak := 0
		for i := 0; i < 100*depth+1000; i++ {
			push()
			peak = max(peak, m.len())
			pop()
		}
		if c := cap(m.q); c > 2*peak {
			t.Fatalf("depth %d: cap %d after a steady backlog, peak depth %d", depth, c, peak)
		}
		for m.len() > 0 {
			pop()
		}
		if len(m.q) != 0 || m.head != 0 {
			t.Fatalf("depth %d: drained box has len %d head %d", depth, len(m.q), m.head)
		}
	}
}
