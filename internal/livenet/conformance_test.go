package livenet_test

import (
	"testing"

	"chc/internal/livenet"
	"chc/internal/transport"
	"chc/internal/transport/transporttest"
)

// TestTransportConformance runs the shared substrate contract suite
// against the goroutine-backed implementation.
func TestTransportConformance(t *testing.T) {
	transporttest.Run(t, func() transport.Transport {
		return livenet.New(livenet.Config{Seed: 1})
	})
}

// TestSendAfterShutdown: after Shutdown a Send and a SendBurst are both
// dropped, and both count on their link as sent and dropped.
func TestSendAfterShutdown(t *testing.T) {
	n := livenet.New(livenet.Config{Seed: 1})
	ep := n.Endpoint("b")
	n.Shutdown()
	n.Send(transport.Message{From: "a", To: "b"})
	n.SendBurst([]transport.Message{{From: "a", To: "b"}, {From: "a", To: "b"}})
	if sent, delivered, dropped := n.LinkStats("a", "b"); sent != 3 || delivered != 0 || dropped != 3 {
		t.Fatalf("link a->b counted sent=%d delivered=%d dropped=%d, want 3, 0, 3", sent, delivered, dropped)
	}
	if ep.Len() != 0 {
		t.Fatalf("%d messages queued after shutdown", ep.Len())
	}
}
