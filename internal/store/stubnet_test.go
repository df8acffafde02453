package store

import (
	"time"

	"chc/internal/transport"
)

// stubNet is the transport for unit tests and layer benchmarks that need
// no peer: Send records the message when keep is set and drops it
// otherwise, Schedule drops the timer (no retransmissions), and Call is
// answered on the spot with a miss. Every other Transport method is the
// embedded nil interface's and panics if reached.
type stubNet struct {
	transport.Transport
	keep  bool
	sent  []transport.Message
	calls []*Request
}

func (n *stubNet) Send(m transport.Message) {
	if n.keep {
		n.sent = append(n.sent, m)
	}
}

func (n *stubNet) Schedule(time.Duration, func()) {}

func (n *stubNet) Call(_ transport.Proc, _, _ string, payload any, _ int, _ time.Duration) (any, bool) {
	if n.keep {
		n.calls = append(n.calls, payload.(*Request))
	}
	return Reply{}, true
}

func (n *stubNet) Now() transport.Time { return 0 }

// asyncReqs returns the requests of every async op sent so far, in send
// order, and forgets them.
func (n *stubNet) asyncReqs() []Request {
	var out []Request
	for _, m := range n.sent {
		switch pl := m.Payload.(type) {
		case AsyncOp:
			out = append(out, *pl.Req)
		case AsyncBatchMsg:
			for _, op := range pl.Ops {
				out = append(out, *op.Req)
			}
		}
	}
	n.sent = n.sent[:0]
	return out
}
