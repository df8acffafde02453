package store

import (
	"fmt"
	"testing"
	"time"

	"chc/internal/livenet"
	"chc/internal/transport"
)

// Layer benchmarks for the steady-state store costs that must scale with
// ops issued, not with state held, and for the server's answer to a batch
// (DESIGN.md §13). `make bench-smoke` runs each once; for numbers:
//
//	go test -run '^$' -bench 'ClientFlushAll|ClientLogWal|ClientOutbound|EngineApplyNoListener|ServerAsyncBatch' -benchmem ./internal/store

// BenchmarkClientFlushAll: one periodic flush with `dirty` entries holding
// an unflushed op among `clean` entries holding none. The cost must not
// depend on clean.
func BenchmarkClientFlushAll(b *testing.B) {
	for _, bc := range []struct{ clean, dirty int }{{0, 32}, {1024, 32}, {16384, 32}, {16384, 0}} {
		b.Run(fmt.Sprintf("clean=%d,dirty=%d", bc.clean, bc.dirty), func(b *testing.B) {
			c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
				Mode: ModeEOCNA, Decls: perFlowDecl})
			// Clock 0 keeps the ops out of the WAL: this measures the flush.
			for sub := 0; sub < bc.clean+bc.dirty; sub++ {
				c.Update(nil, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 2, Sub: uint64(sub)}, Arg: IntVal(1)})
			}
			c.FlushAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for sub := 0; sub < bc.dirty; sub++ {
					c.Update(nil, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 2, Sub: uint64(sub)}, Arg: IntVal(1)})
				}
				c.FlushAll()
				forgetSent(c)
			}
		})
	}
}

// forgetSent drops what c awaits acks for: nobody acks, and no timer fires,
// on the stub transport, and the benchmarks' memory must not grow with b.N.
func forgetSent(c *Client) {
	clear(c.pending)
	for c.retx.Len() > 0 {
		c.retx.Pop()
	}
	c.retxArmed = false
}

// BenchmarkClientLogWal: appends to a WAL that is never truncated, as on a
// chain without checkpoints; a fresh client every million entries keeps
// the benchmark's memory bounded. B/op is the entry's wire encoding, 110
// bytes for this increment.
func BenchmarkClientLogWal(b *testing.B) {
	newClient := func() *Client {
		return NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0"})
	}
	c := newClient()
	req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 1, Instance: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1000000 == 999999 {
			c = newClient()
		}
		c.logOp(&req)
	}
}

// BenchmarkClientOutbound: the +NA outbound path per async op, driven the
// way an instance drives it: 32 non-blocking ops (28 increments over eight
// counters, every eighth op a Set, which seals the open heads), FlushBurst,
// then every op acked. Clock 0 keeps the ops out of the WAL
// (BenchmarkClientLogWal has that cost).
func BenchmarkClientOutbound(b *testing.B) {
	c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
		Mode: ModeEOCNA, Decls: counterDecl})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1, Sub: uint64(i % 8)}, Arg: IntVal(1)}
		if i%8 == 7 {
			req.Op = OpSet
		}
		c.Update(nil, req)
		if i%32 == 31 {
			c.FlushBurst()
			forgetSent(c)
		}
	}
}

// BenchmarkServerAsyncBatch: one server on livenet applying async increments
// (eight counters, every op its own clock) that arrive in messages of `ops`
// ops, the way a burst-32 instance's client sends them, and "ops=1", a
// flush that had one op for the shard. The benchmark's process drains the
// acks at the client endpoint and the commits at the root endpoint, and
// prunes the clocks, every window of 1024 ops behind a blocking call the
// server answers in FIFO order. Reported per op.
func BenchmarkServerAsyncBatch(b *testing.B) {
	for _, ops := range []int{1, 32} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			net := livenet.New(livenet.Config{Seed: 1})
			defer net.Shutdown()
			srv := NewServer(net, "store0", ServerConfig{OpService: -1, RootEndpoint: "root"})
			srv.Start()
			acks, root := net.Endpoint("nfa"), net.Endpoint("root")
			done := make(chan struct{})
			net.Spawn("nfa", func(p transport.Proc) {
				defer close(done)
				const window = 1024
				b.ReportAllocs()
				b.ResetTimer()
				for seq := uint64(0); seq < uint64(b.N); {
					lo := seq + 1
					for n := 0; n < window && seq < uint64(b.N); n += ops {
						batch := make([]AsyncOp, ops)
						for i := range batch {
							seq++
							batch[i] = AsyncOp{Seq: seq, From: "nfa", Req: &Request{Op: OpIncr,
								Key: Key{Vertex: 1, Obj: 1, Sub: seq % 8}, Arg: IntVal(1), Clock: seq, Instance: 1}}
						}
						net.Send(transport.Message{From: "nfa", To: "store0", Payload: AsyncBatchMsg{Ops: batch}})
					}
					net.Call(p, "nfa", "store0", &Request{Op: OpGet, Key: Key{Vertex: 1, Obj: 1}}, 16, time.Second)
					for acks.Len() > 0 {
						acks.Recv(p)
					}
					for root.Len() > 0 {
						root.Recv(p)
					}
					for c := lo; c <= seq; c++ {
						srv.Engine().PruneClock(c)
					}
				}
			})
			<-done
		})
	}
}

// BenchmarkEngineApplyNoListener: a push and a pop on a long list behind a
// server nobody registered a callback with (the NAT's port pool).
func BenchmarkEngineApplyNoListener(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("list=%d", n), func(b *testing.B) {
			srv, _, key := listServer(n)
			push := Request{Op: OpPushList, Key: key, Arg: IntVal(7), Instance: 1}
			pop := Request{Op: OpPopList, Key: key, Instance: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Engine().Apply(&push)
				srv.Engine().Apply(&pop)
			}
		})
	}
}
