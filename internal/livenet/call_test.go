package livenet_test

import (
	"testing"
	"time"

	"chc/internal/livenet"
	"chc/internal/netnet"
	"chc/internal/transport"
)

// echoServer answers every call on "srv" with reply.
func echoServer(tr transport.Transport, reply any) {
	tr.Spawn("server", func(p transport.Proc) {
		ep := tr.Endpoint("srv")
		for {
			if cm, ok := ep.Recv(p).Payload.(transport.Call); ok {
				cm.Reply(reply, 8)
			}
		}
	})
}

// inProc runs fn on a spawned process and waits for it.
func inProc(tr transport.Transport, fn func(p transport.Proc)) {
	done := make(chan struct{})
	tr.Spawn("client", func(p transport.Proc) {
		defer close(done)
		fn(p)
	})
	<-done
}

// TestCallAllocs: a livenet Call from a spawned process, payload and reply
// allocated up front, costs at most one allocation: the callMsg, which the
// callee may hold past the call (DESIGN.md §13).
func TestCallAllocs(t *testing.T) {
	n := livenet.New(livenet.Config{Seed: 1})
	defer n.Shutdown()
	payload, reply := any(&struct{ k int }{1}), any(&struct{ v int }{2})
	echoServer(n, reply)
	var allocs float64
	inProc(n, func(p transport.Proc) {
		n.Call(p, "cli", "srv", payload, 8, time.Second) // warm the slot and the boxes
		allocs = testing.AllocsPerRun(1000, func() {
			if v, ok := n.Call(p, "cli", "srv", payload, 8, time.Second); !ok || v != reply {
				t.Errorf("call returned %v ok=%v", v, ok)
			}
		})
	})
	if allocs > 1 {
		t.Fatalf("livenet Call: %v allocs, want <= 1", allocs)
	}
}

// BenchmarkCall: one blocking round trip between two processes, payload
// and reply allocated up front; "netnet" crosses two loopback nodes.
//
//	go test -run '^$' -bench Call -benchmem -cpu 2 ./internal/livenet
func BenchmarkCall(b *testing.B) {
	payload, reply := any(&struct{ k int }{1}), any(&struct{ v int }{2})
	b.Run("livenet", func(b *testing.B) {
		n := livenet.New(livenet.Config{Seed: 1})
		defer n.Shutdown()
		benchCall(b, n, payload, reply)
	})
	b.Run("netnet", func(b *testing.B) {
		c, err := netnet.NewCluster(netnet.ClusterConfig{Seed: 1, Nodes: []transport.NodeSpec{
			{Name: "n0", Endpoints: []string{"cli"}},
			{Name: "n1", Endpoints: []string{"srv"}},
		}})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Shutdown()
		// The wire carries ints; small ones box without allocating.
		benchCall(b, c, 7, 9)
	})
}

func benchCall(b *testing.B, tr transport.Transport, payload, reply any) {
	echoServer(tr, reply)
	inProc(tr, func(p transport.Proc) {
		tr.Call(p, "cli", "srv", payload, 8, time.Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := tr.Call(p, "cli", "srv", payload, 8, time.Second); !ok {
				b.Error("call timed out")
				return
			}
		}
	})
}
