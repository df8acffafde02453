package store

import (
	"fmt"
	"testing"
)

// Layer benchmarks for the three steady-state store costs that must scale
// with ops issued, not with state held (DESIGN.md §13). `make bench-smoke`
// runs each once; for numbers:
//
//	go test -run '^$' -bench 'ClientFlushAll|ClientLogWal|ClientOutbound|EngineApplyNoListener' -benchmem ./internal/store

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
				// Nobody acks on the stub transport; forget the ops just sent
				// so the retransmit table does not grow with b.N.
				for s := c.seq - uint64(bc.dirty) + 1; s <= c.seq; s++ {
					delete(c.pending, s)
				}
			}
		})
	}
}

// BenchmarkClientLogWal: appends to a WAL that is never truncated, as on a
// chain without checkpoints; a fresh client every million entries keeps
// the benchmark's memory bounded. B/op should be about one WalOp.
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
// then every op acked. "des" sends each op as it is issued; "burst32"
// holds them for the FlushBurst. Clock 0 keeps the ops out of the WAL
// (BenchmarkClientLogWal has that cost).
func BenchmarkClientOutbound(b *testing.B) {
	for _, bc := range []struct {
		name string
		hold bool
	}{{"des", false}, {"burst32", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
				Mode: ModeEOCNA, Decls: counterDecl, BurstRPC: bc.hold})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1, Sub: uint64(i % 8)}, Arg: IntVal(1)}
				if i%8 == 7 {
					req.Op = OpSet
				}
				c.Update(nil, req)
				if i%32 == 31 {
					c.FlushBurst()
					clear(c.pending) // nobody acks on the stub transport
				}
			}
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
