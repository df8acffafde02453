package store

import (
	"testing"
	"time"

	"chc/internal/simnet"
	"chc/internal/vtime"
)

// testRig wires a store server and n clients over a 15µs-latency network
// (30µs RTT, the ballpark the paper attributes to its store round trips).
type testRig struct {
	sim     *vtime.Sim
	net     *simnet.Network
	server  *Server
	clients []*Client
}

const testLat = 15 * time.Microsecond

func newRig(t *testing.T, n int, mode Mode, decls []ObjDecl) *testRig {
	t.Helper()
	sim := vtime.NewSim(1)
	net := simnet.New(sim, simnet.LinkConfig{Latency: testLat})
	srv := NewServer(net, "store0", DefaultServerConfig())
	srv.Start()
	r := &testRig{sim: sim, net: net, server: srv}
	for i := 0; i < n; i++ {
		ep := "nf" + string(rune('a'+i))
		c := NewClient(net, ClientConfig{
			Vertex: 1, Instance: uint16(i + 1), Endpoint: ep, Store: "store0",
			Mode: mode, Decls: decls,
		})
		r.clients = append(r.clients, c)
		// Dispatch loop for store-pushed messages.
		cl := c
		endpoint := net.Endpoint(ep)
		sim.Spawn(ep+".loop", func(p *vtime.Proc) {
			for {
				msg := endpoint.Recv(p)
				cl.HandleMessage(msg.Payload)
			}
		})
	}
	return r
}

// run executes fn in a fresh process and drives the sim for a bounded
// horizon.
func (r *testRig) run(fn func(p *vtime.Proc)) {
	r.sim.Spawn("test", fn)
	r.sim.RunFor(time.Second)
}

var counterDecl = []ObjDecl{{ID: 1, Name: "ctr", Scope: ScopeGlobal, Pattern: WriteMostly}}

func TestClientBlockingRoundTrip(t *testing.T) {
	r := newRig(t, 1, ModeEO, counterDecl)
	var elapsed time.Duration
	r.run(func(p *vtime.Proc) {
		start := p.Now()
		r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 1})
		elapsed = p.Now().Sub(start)
	})
	// One RTT (30µs) + op service.
	if elapsed < 30*time.Microsecond || elapsed > 35*time.Microsecond {
		t.Fatalf("blocking update took %v, want ~30µs", elapsed)
	}
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 1 {
		t.Fatalf("store value = %v", v)
	}
}

func TestClientNoAckWaitIsFree(t *testing.T) {
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	var elapsed time.Duration
	r.run(func(p *vtime.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: uint64(i + 1)})
		}
		elapsed = p.Now().Sub(start)
	})
	if elapsed != 0 {
		t.Fatalf("async updates took %v, want 0 (no ACK wait)", elapsed)
	}
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 10 {
		t.Fatalf("store value = %v, want 10", v.Int)
	}
	if len(r.clients[0].pending) != 0 {
		t.Fatalf("%d ops still un-ACKed", len(r.clients[0].pending))
	}
}

func TestAsyncRetransmitOnLoss(t *testing.T) {
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	// Drop the first transmission: 100% loss for a window, then clean.
	r.net.SetLink("nfa", "store0", simnet.LinkConfig{Latency: testLat, LossProb: 1.0})
	r.sim.Schedule(500*time.Microsecond, func() {
		r.net.SetLink("nfa", "store0", simnet.LinkConfig{Latency: testLat})
	})
	r.run(func(p *vtime.Proc) {
		r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 7})
	})
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 1 {
		t.Fatalf("value = %v, want 1 (retransmission failed)", v.Int)
	}
	if r.clients[0].Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

func TestRetransmitDuplicateSuppressed(t *testing.T) {
	// Lose the ACK instead: op applies once, retransmit is emulated, the
	// counter must not double-count.
	r := newRig(t, 1, ModeEOCNA, counterDecl)
	r.net.SetLink("store0", "nfa", simnet.LinkConfig{Latency: testLat, LossProb: 1.0})
	r.sim.Schedule(1500*time.Microsecond, func() {
		r.net.SetLink("store0", "nfa", simnet.LinkConfig{Latency: testLat})
	})
	r.run(func(p *vtime.Proc) {
		r.clients[0].Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 7})
	})
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 1}); v.Int != 1 {
		t.Fatalf("value = %v, want exactly 1 (duplicate applied)", v.Int)
	}
}

var perFlowDecl = []ObjDecl{{ID: 2, Name: "flowctr", Scope: ScopeFlow, Pattern: WriteReadOften}}

func TestPerFlowCachingLocal(t *testing.T) {
	r := newRig(t, 1, ModeEOC, perFlowDecl)
	var first, rest time.Duration
	r.run(func(p *vtime.Proc) {
		c := r.clients[0]
		start := p.Now()
		// First touch initializes the cache from the store: one RTT.
		c.Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 2, Sub: 42}, Arg: IntVal(1), Clock: 1})
		first = p.Now().Sub(start)
		start = p.Now()
		for i := 1; i < 100; i++ {
			c.Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 2, Sub: 42}, Arg: IntVal(1), Clock: uint64(i + 1)})
		}
		v, ok := c.Get(p, 2, 42, 101)
		if !ok || v.Int != 100 {
			t.Errorf("cached read = %v,%v want 100", v, ok)
		}
		rest = p.Now().Sub(start)
	})
	if first < 30*time.Microsecond {
		t.Fatalf("first cached op took %v, want >= 1 RTT (cache fill)", first)
	}
	if rest != 0 {
		t.Fatalf("warm cached per-flow ops took %v, want 0", rest)
	}
	// Not yet flushed.
	if _, ok := r.server.Engine().Get(Key{Vertex: 1, Obj: 2, Sub: 42}); ok {
		t.Fatal("unflushed state reached the store")
	}
	// Flush: ops (not values) reach the store.
	r.run(func(p *vtime.Proc) {
		r.clients[0].FlushObject(2, 42)
	})
	if v, _ := r.server.Engine().Get(Key{Vertex: 1, Obj: 2, Sub: 42}); v.Int != 100 {
		t.Fatalf("flushed value = %v, want 100", v.Int)
	}
}

var readHeavyDecl = []ObjDecl{{ID: 3, Name: "config", Scope: ScopeGlobal, Pattern: ReadHeavy}}

func TestReadHeavyCallbackPropagation(t *testing.T) {
	r := newRig(t, 2, ModeEOC, readHeavyDecl)
	key := Key{Vertex: 1, Obj: 3}
	r.run(func(p *vtime.Proc) {
		// Seed, then both clients read (registering callbacks).
		r.clients[0].Update(p, Request{Op: OpSet, Key: key, Arg: IntVal(5), Clock: 1})
		if v, _ := r.clients[0].Get(p, 3, 0, 2); v.Int != 5 {
			t.Errorf("client0 read = %v", v)
		}
		if v, _ := r.clients[1].Get(p, 3, 0, 3); v.Int != 5 {
			t.Errorf("client1 read = %v", v)
		}
		// Client0 updates; the store must push the new value to client1.
		r.clients[0].Update(p, Request{Op: OpSet, Key: key, Arg: IntVal(9), Clock: 4})
		p.Sleep(200 * time.Microsecond) // callback propagation
		// Client1's next read must hit its refreshed cache: zero time.
		start := p.Now()
		v, _ := r.clients[1].Get(p, 3, 0, 5)
		if p.Now() != start {
			t.Error("read-heavy read was not served from cache")
		}
		if v.Int != 9 {
			t.Errorf("client1 cached value = %v, want 9 (callback missed)", v)
		}
	})
}

var splitDecl = []ObjDecl{{ID: 4, Name: "hostLikelihood", Scope: ScopeSrcIP, Pattern: WriteReadOften}}

func TestSplitAwareExclusivity(t *testing.T) {
	r := newRig(t, 1, ModeEOC, splitDecl)
	key := Key{Vertex: 1, Obj: 4, Sub: 77}
	r.run(func(p *vtime.Proc) {
		c := r.clients[0]
		// Not exclusive: blocking op, one RTT.
		start := p.Now()
		c.Update(p, Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 1})
		if d := p.Now().Sub(start); d < 30*time.Microsecond {
			t.Errorf("non-exclusive update took %v, want >= 1 RTT", d)
		}
		// Gain exclusivity: cached, zero-time ops.
		c.SetExclusive(4, 77, true)
		// Prime the cache with the store value.
		c.Get(p, 4, 77, 2)
		start = p.Now()
		c.Update(p, Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 3})
		if d := p.Now().Sub(start); d != 0 {
			t.Errorf("exclusive update took %v, want 0", d)
		}
		// Lose exclusivity: pending ops are flushed.
		c.SetExclusive(4, 77, false)
		p.Sleep(200 * time.Microsecond)
	})
	if v, _ := r.server.Engine().Get(key); v.Int != 2 {
		t.Fatalf("store value = %v, want 2", v.Int)
	}
}

func TestHandoverReleaseAcquire(t *testing.T) {
	r := newRig(t, 2, ModeEOC, perFlowDecl)
	key := Key{Vertex: 1, Obj: 2, Sub: 99}
	r.run(func(p *vtime.Proc) {
		old, nu := r.clients[0], r.clients[1]
		if !old.AcquireFlow(p, 99, time.Millisecond) {
			t.Fatal("old instance failed to acquire")
		}
		for i := 1; i <= 3; i++ {
			old.Update(p, Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: uint64(i)})
		}
		// Old releases (flushing cached ops), new acquires.
		old.ReleaseFlow(p, 99)
		if !nu.AcquireFlow(p, 99, time.Millisecond) {
			t.Fatal("new instance failed to acquire after release")
		}
		p.Sleep(200 * time.Microsecond) // flushed async ops land
		v, ok := nu.Get(p, 2, 99, 10)
		if !ok || v.Int != 3 {
			t.Errorf("state after handover = %v,%v want 3 (loss-free)", v, ok)
		}
		nu.Update(p, Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 11})
		nu.FlushObject(2, 99)
		p.Sleep(200 * time.Microsecond)
	})
	if v, _ := r.server.Engine().Get(key); v.Int != 4 {
		t.Fatalf("final = %v, want 4", v.Int)
	}
	if got := r.server.Engine().Owner(key); got != 2 {
		t.Fatalf("owner = %d, want 2", got)
	}
}

func TestHandoverWaitsForRelease(t *testing.T) {
	// New instance tries to acquire while the old one still owns: it must
	// block on the ownership watch and succeed only after release (Fig 4
	// steps 3-7).
	r := newRig(t, 2, ModeEOC, perFlowDecl)
	var acquiredAt vtime.Time
	releaseAt := vtime.Time(500 * time.Microsecond)
	r.sim.Spawn("old", func(p *vtime.Proc) {
		old := r.clients[0]
		if !old.AcquireFlow(p, 5, time.Millisecond) {
			t.Error("old acquire failed")
		}
		p.SleepUntil(releaseAt)
		old.ReleaseFlow(p, 5)
	})
	r.sim.SpawnAfter(100*time.Microsecond, "new", func(p *vtime.Proc) {
		nu := r.clients[1]
		if !nu.AcquireFlow(p, 5, 10*time.Millisecond) {
			t.Error("new acquire failed")
			return
		}
		acquiredAt = p.Now()
	})
	r.sim.RunFor(time.Second)
	if acquiredAt <= releaseAt {
		t.Fatalf("acquired at %v, before release at %v", acquiredAt, releaseAt)
	}
}

func TestCommitSignalsToRoot(t *testing.T) {
	sim := vtime.NewSim(1)
	net := simnet.New(sim, simnet.LinkConfig{Latency: testLat})
	cfg := DefaultServerConfig()
	cfg.RootEndpoint = "root"
	srv := NewServer(net, "store0", cfg)
	srv.Start()
	var commits []Commit
	rootEp := net.Endpoint("root")
	sim.Spawn("root", func(p *vtime.Proc) {
		for {
			msg := rootEp.Recv(p)
			if cm, ok := msg.Payload.(CommitMsg); ok {
				commits = append(commits, cm.Commits...)
			}
		}
	})
	c := NewClient(net, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0", Decls: counterDecl})
	sim.Spawn("test", func(p *vtime.Proc) {
		c.Update(p, Request{Op: OpIncr, Key: Key{Vertex: 1, Obj: 1}, Arg: IntVal(1), Clock: 42})
		c.Get(p, 1, 0, 43) // reads must not signal
	})
	sim.RunFor(time.Second)
	if len(commits) != 1 || commits[0].Clock != 42 || commits[0].Instance != 1 {
		t.Fatalf("commits = %+v", commits)
	}
}

func TestWALTruncationOnCheckpoint(t *testing.T) {
	sim := vtime.NewSim(1)
	net := simnet.New(sim, simnet.LinkConfig{Latency: testLat})
	cfg := DefaultServerConfig()
	cfg.CheckpointEvery = 300 * time.Microsecond
	srv := NewServer(net, "store0", cfg)
	srv.Start()
	c := NewClient(net, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0", Mode: ModeEOC, Decls: readHeavyDecl})
	ep := net.Endpoint("nfa")
	sim.Spawn("nfa.loop", func(p *vtime.Proc) {
		for {
			msg := ep.Recv(p)
			c.HandleMessage(msg.Payload)
		}
	})
	sim.Spawn("test", func(p *vtime.Proc) {
		// Register via a read so the server knows our endpoint, then write.
		c.Get(p, 3, 0, 1)
		for i := 2; i <= 6; i++ {
			c.Update(p, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 3}, Arg: IntVal(int64(i)), Clock: uint64(i)})
		}
	})
	sim.RunFor(2 * time.Millisecond)
	if len(c.WAL("store0")) != 0 {
		t.Fatalf("WAL has %d entries after checkpoint truncation", len(c.WAL("store0")))
	}
	if snap, _, _ := srv.StableState().LatestVerified(); snap == nil {
		t.Fatal("no checkpoint taken")
	}
}

// TestModeNamesRoundTrip: each mode's config-file name parses back to it.
func TestModeNamesRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeEO, ModeEOC, ModeEOCNA} {
		if got, err := ParseMode(m.Name()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %+v, %v; want %+v", m.Name(), got, err, m)
		}
	}
	if _, err := ParseMode("eoca"); err == nil {
		t.Error("ParseMode accepted an unknown name")
	}
}
