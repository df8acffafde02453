package store

import (
	"time"

	"chc/internal/transport"
)

// stubNet is the transport for unit tests and layer benchmarks that need
// no peer. With keep set it records what the client does, in order: Send
// and Call append to sent (a call as a message whose payload is the
// *Request), Schedule appends to timers and never fires one by itself.
// Without keep everything is dropped. Call is answered on the spot with a
// miss; every other Transport method is the embedded nil interface's and
// panics if reached.
type stubNet struct {
	transport.Transport
	keep   bool
	sent   []transport.Message
	calls  []*Request
	timers []stubTimer
	// onCall, if set, runs inside every recorded Call, before the reply.
	onCall func(*Request)
}

// stubTimer is one recorded Schedule call; sent is len(stubNet.sent) at
// the time, which places it among the sends.
type stubTimer struct {
	d     time.Duration
	fn    func()
	sent  int
	fired bool
}

func (n *stubNet) Send(m transport.Message) {
	if n.keep {
		n.sent = append(n.sent, m)
	}
}

func (n *stubNet) Schedule(d time.Duration, fn func()) {
	if n.keep {
		n.timers = append(n.timers, stubTimer{d: d, fn: fn, sent: len(n.sent)})
	}
}

func (n *stubNet) Call(_ transport.Proc, _, to string, payload any, _ int, _ time.Duration) (any, bool) {
	if n.keep {
		req := payload.(*Request)
		n.calls = append(n.calls, req)
		n.sent = append(n.sent, transport.Message{To: to, Payload: req})
		if n.onCall != nil {
			n.onCall(req)
		}
	}
	return Reply{}, true
}

func (n *stubNet) Now() transport.Time { return 0 }

// fire runs, once each, the timers scheduled for d that are recorded now
// (not the ones they schedule in turn) and reports how many it ran.
func (n *stubNet) fire(d time.Duration) (ran int) {
	for i, end := 0, len(n.timers); i < end; i++ {
		if t := n.timers[i]; t.d == d && !t.fired {
			n.timers[i].fired = true
			t.fn()
			ran++
		}
	}
	return ran
}

// asyncReqs returns the requests of every async op sent so far, in send
// order, and forgets everything recorded.
func (n *stubNet) asyncReqs() []Request {
	var out []Request
	for _, m := range n.sent {
		if pl, ok := m.Payload.(AsyncBatchMsg); ok {
			for _, op := range pl.Ops {
				out = append(out, *op.Req)
			}
		}
	}
	n.sent, n.timers = n.sent[:0], n.timers[:0]
	return out
}
