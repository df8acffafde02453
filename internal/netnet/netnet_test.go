package netnet_test

import (
	"testing"
	"time"

	"chc/internal/netnet"
	"chc/internal/transport"
)

// twoNodes builds two independent netnet Nets (each with its own core and
// hub, as two chcd workers would have) sharing one NodeMap: the closest
// in-process approximation of a real multi-process deployment.
func twoNodes(t *testing.T) (*netnet.Net, *netnet.Net) {
	t.Helper()
	nm := transport.NewNodeMap([]transport.NodeSpec{
		{Name: "w1", Endpoints: []string{"a", "cli"}},
		{Name: "w2", Endpoints: []string{"b", "srv"}},
	})
	n1, err := netnet.New(netnet.Config{Seed: 1, Node: "w1", Nodes: nm})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n1.Shutdown)
	n2, err := netnet.New(netnet.Config{Seed: 2, Node: "w2", Nodes: nm})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n2.Shutdown)
	return n1, n2
}

// TestCrossNodeSendFIFO: messages between two independent nodes traverse
// the codec and socket, arriving in order with Size = encoded length.
func TestCrossNodeSendFIFO(t *testing.T) {
	n1, n2 := twoNodes(t)
	const total = 500
	done := n2.NewSignal()
	var got []int
	var sizes []int
	n2.Spawn("rx", func(p transport.Proc) {
		ep := n2.Endpoint("b")
		for len(got) < total {
			m := ep.Recv(p)
			got = append(got, m.Payload.(int))
			sizes = append(sizes, m.Size)
		}
		done.Resolve(nil)
	})
	for i := 0; i < total; i++ {
		n1.Send(transport.Message{From: "a", To: "b", Payload: i, Size: 8})
	}
	if !n2.Drive(done, 5*time.Second) {
		t.Fatalf("receiver drained %d/%d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
	// An int encodes as [tag u16][i64]: 10 bytes, not the declared 8.
	if sizes[0] != 10 {
		t.Fatalf("Size = %d, want encoded length 10", sizes[0])
	}
	if s := n1.Stats(); s.RemoteMsgs != total || s.RemoteBytes == 0 || s.RemoteDropped != 0 {
		t.Fatalf("sender stats = %+v, want %d remote msgs and none dropped", s, total)
	}
}

// TestCrossNodeBurst: burst frames decode into the receiving core's burst
// path, order preserved.
func TestCrossNodeBurst(t *testing.T) {
	n1, n2 := twoNodes(t)
	const per, bursts = 32, 8
	total := per * bursts
	done := n2.NewSignal()
	var got []int
	n2.Spawn("rx", func(p transport.Proc) {
		ep := n2.Endpoint("b")
		for len(got) < total {
			got = append(got, ep.Recv(p).Payload.(int))
		}
		done.Resolve(nil)
	})
	next := 0
	for i := 0; i < bursts; i++ {
		msgs := make([]transport.Message, per)
		for j := range msgs {
			msgs[j] = transport.Message{From: "a", To: "b", Payload: next, Size: 8}
			next++
		}
		n1.SendBurst(msgs)
	}
	if !n2.Drive(done, 5*time.Second) {
		t.Fatalf("receiver drained %d/%d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

// TestCrossNodeCall: the full RPC loop — request frame out, transport.Call
// delivered on the remote node, reply frame back — under concurrency.
func TestCrossNodeCall(t *testing.T) {
	n1, n2 := twoNodes(t)
	n2.Spawn("server", func(p transport.Proc) {
		ep := n2.Endpoint("srv")
		for {
			m := ep.Recv(p)
			if cm, ok := m.Payload.(transport.Call); ok {
				if cm.From() != "cli" {
					t.Errorf("call From = %q, want cli", cm.From())
				}
				cm.Reply(cm.Body().(int)*2, 8)
			}
		}
	})
	const calls = 50
	done := n1.NewSignal()
	n1.Spawn("client", func(p transport.Proc) {
		for i := 0; i < calls; i++ {
			v, ok := n1.Call(p, "cli", "srv", i, 8, 2*time.Second)
			if !ok || v.(int) != i*2 {
				t.Errorf("call %d returned %v ok=%v", i, v, ok)
				break
			}
		}
		done.Resolve(nil)
	})
	if !n1.Drive(done, 10*time.Second) {
		t.Fatal("calls did not complete")
	}
	if s := n1.Stats(); s.RemoteCalls != calls {
		t.Fatalf("RemoteCalls = %d, want %d", s.RemoteCalls, calls)
	}
}

// TestCrossNodeCallTimeout: a dead peer (hub shut down mid-flight) makes
// calls fail with ok=false instead of hanging.
func TestCrossNodeCallTimeout(t *testing.T) {
	n1, n2 := twoNodes(t)
	// Prime the connection so the failure is mid-stream, not at dial time.
	n1.Send(transport.Message{From: "a", To: "b", Payload: 1, Size: 8})
	n2.Shutdown()
	done := n1.NewSignal()
	var ok bool
	n1.Spawn("client", func(p transport.Proc) {
		_, ok = n1.Call(p, "cli", "srv", 1, 8, 200*time.Millisecond)
		done.Resolve(nil)
	})
	if !n1.Drive(done, 5*time.Second) {
		t.Fatal("call did not return")
	}
	if ok {
		t.Fatal("call to dead node succeeded")
	}
}

// TestUnregisteredPayloadPanics: shipping a codec-less payload cross-node
// is a loud programming error, not silent corruption.
func TestUnregisteredPayloadPanics(t *testing.T) {
	n1, _ := twoNodes(t)
	type secret struct{ X int }
	defer func() {
		if recover() == nil {
			t.Fatal("cross-node Send of unregistered payload did not panic")
		}
	}()
	n1.Send(transport.Message{From: "a", To: "b", Payload: secret{1}, Size: 8})
}
