package runtime

import (
	gort "runtime"
	"sync/atomic"
	"testing"
	"time"

	"chc/internal/livenet"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// TestDESRunsBurstPath: the DES runs the root's and the instances' burst
// path, with bursts of one, so every packet the root forwards is one ingest
// flush; its store clients hold async ops for the flush as live ones do,
// so some store messages carry several ops; and its packet arena stays off
// (recycling has nothing to amortize there, and the golden outputs must not
// depend on pool behavior).
func TestDESRunsBurstPath(t *testing.T) {
	c := New(testConfig(), natVertex(2, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	c.RunTrace(smallTrace(40), 50*time.Millisecond)
	if c.Root.Injected == 0 {
		t.Fatal("scenario injected nothing")
	}
	if c.Root.Bursts != c.Root.Injected {
		t.Fatalf("root flushed %d bursts for %d packets; the DES bursts are of one",
			c.Root.Bursts, c.Root.Injected)
	}
	if n := c.Metrics.Counter("client.burst_rpcs"); n == 0 {
		t.Fatal("no multi-op store message on the DES; async ops left one per message")
	}
	if c.Arena().Reuses() != 0 || c.Arena().Puts() != 0 {
		t.Fatalf("DES arena recycled (reuses=%d puts=%d); the arena must be disabled off-live",
			c.Arena().Reuses(), c.Arena().Puts())
	}
}

// TestLiveBurstSoak drives sustained traffic through a live chain with
// batching and the arena enabled and checks the correctness invariants
// batching must not disturb: conservation, a drained root log, no
// duplicate deliveries — plus that the optimizations actually engaged
// (bursts flushed, arena buffers recycled, store RPCs batched). Run under
// -race this doubles as the burst-path data-race soak.
func TestLiveBurstSoak(t *testing.T) {
	cfg := LiveChainConfig()
	cfg.Seed = 13
	ch := New(cfg, natVertex(2, BackendCHC, store.ModeEOCNA))
	ch.Start()
	seedNAT(ch, ch.Vertices[0])
	flows := 80 * int(soakBudget(time.Second)/time.Second)
	tr := trace.Generate(trace.Config{
		Seed: 13, Flows: flows, PktsPerFlowMean: 12,
		PayloadMedian: 600, Hosts: 16, Servers: 8,
	})
	tr.Pace(4_000_000_000)
	ch.RunTrace(tr, 100*time.Millisecond)
	if !ch.AwaitDrained(15 * time.Second) {
		st, _ := ch.QueryRootStats(time.Second)
		t.Fatalf("burst soak did not drain: injected=%d deleted=%d log=%d",
			st.Injected, st.Deleted, st.LogSize)
	}
	st, ok := ch.QueryRootStats(time.Second)
	ch.Stop()
	if !ok {
		t.Fatal("root stats query failed")
	}
	if st.Injected == 0 || st.Injected != st.Deleted {
		t.Fatalf("conservation violated: injected=%d deleted=%d", st.Injected, st.Deleted)
	}
	if ch.Sink.Duplicates != 0 {
		t.Fatalf("sink saw %d duplicate deliveries under batching", ch.Sink.Duplicates)
	}
	if st.Bursts == 0 {
		t.Fatal("live chain never flushed a multi-packet burst")
	}
	if ch.Arena().Puts() == 0 {
		t.Fatal("arena never recycled a packet on the live hot path")
	}
	ch.HarvestClientStats()
	if ch.Metrics.Counter("client.burst_rpcs") == 0 {
		t.Fatal("store clients never batched an RPC burst")
	}
}

// TestLiveFailoverUnderBurst crashes an instance mid-stream while the
// live chain runs with batching and the arena enabled, fails over with
// root replay, and requires the chain to converge balanced: replay reads
// the root's logged clones, so no recycled buffer may ever surface in the
// replayed stream (the clone-before-log discipline under fire).
func TestLiveFailoverUnderBurst(t *testing.T) {
	cfg := LiveChainConfig()
	cfg.Seed = 17
	ch := New(cfg, natVertex(2, BackendCHC, store.ModeEOCNA))
	ch.Start()
	seedNAT(ch, ch.Vertices[0])
	tr := trace.Generate(trace.Config{
		Seed: 17, Flows: 80, PktsPerFlowMean: 12,
		PayloadMedian: 600, Hosts: 16, Servers: 8,
	})
	tr.Pace(2_000_000_000)

	crashed := make(chan struct{})
	go func() {
		time.Sleep(time.Duration(tr.Duration()) / 2)
		ch.Controller().Failover(ch.Vertices[0].Instances[0])
		close(crashed)
	}()

	ch.RunTrace(tr, 100*time.Millisecond)
	<-crashed
	if !ch.AwaitDrained(15 * time.Second) {
		st, _ := ch.QueryRootStats(time.Second)
		ch.Stop()
		t.Fatalf("chain did not drain after failover under bursts: injected=%d deleted=%d log=%d replayed=%d",
			st.Injected, st.Deleted, st.LogSize, st.Replayed)
	}
	ch.Stop()
	if ch.Root.Injected != ch.Root.Deleted {
		t.Fatalf("conservation violated after failover under bursts: injected=%d deleted=%d",
			ch.Root.Injected, ch.Root.Deleted)
	}
	if ch.Sink.Duplicates != 0 {
		t.Fatalf("sink saw %d duplicates (replay surfaced a recycled or re-sent buffer)", ch.Sink.Duplicates)
	}
}

// TestLiveHotPathAllocs bounds the allocations of the live packet hot path
// in isolation: arena Get, one SendBurst of stamped packets over livenet,
// arena Put at the receiver — the layer below the chain's bookkeeping (root
// log, sink dedup map, store ops), so the count is stable in steady state.
// A *packet.Packet payload boxes without allocating, so nothing is left per
// packet: 0.001 to 0.02 allocations at either burst width (a boxed
// PacketMsg cost one). Under -race the pool drops a quarter of the Puts,
// and each dropped buffer is allocated again: 0.25 more.
func TestLiveHotPathAllocs(t *testing.T) {
	slack := 0.0
	if raceEnabled {
		slack = 0.25
	}
	for _, c := range []struct {
		burst int
		max   float64
	}{{1, 0.25}, {32, 0.25}} {
		c.max += slack
		got := hotPathAllocs(c.burst, 400)
		t.Logf("burst=%d: %.3f allocs/pkt", c.burst, got)
		if got > c.max {
			t.Errorf("burst=%d: %.2f allocs/pkt, want at most %.1f", c.burst, got, c.max)
		}
	}
}

// hotPathAllocs sends rounds bursts of burst arena packets to a receiving
// proc, after a warm-up, and returns the allocator events per packet. The
// sender waits until the receiver has released every buffer, so each round
// starts from a quiesced pool and mailbox.
func hotPathAllocs(burst, rounds int) float64 {
	n := livenet.New(livenet.Config{Seed: 1})
	defer n.Shutdown()
	arena := packet.NewArena(true)
	var consumed atomic.Uint64
	ep := n.Endpoint("rx")
	n.Spawn("rx", func(p transport.Proc) {
		for {
			pkt, ok := ep.Recv(p).Payload.(*packet.Packet)
			if !ok {
				return
			}
			arena.Put(pkt) // the final release point, as at the sink
			consumed.Add(1)
		}
	})

	msgs := make([]transport.Message, burst)
	var sent, clock uint64
	send := func() {
		now := n.Now()
		for i := range msgs {
			pkt := arena.Get()
			pkt.SrcIP, pkt.DstIP = 0x0a000001, 0x0a000002
			pkt.SrcPort, pkt.DstPort = 40000, 80
			pkt.Proto = packet.ProtoTCP
			pkt.PayloadLen = 1394
			clock++
			pkt.Meta.Clock = clock
			pkt.SentNs = int64(now)
			msgs[i] = transport.Message{From: "tx", To: "rx", Size: pkt.WireLen(), Payload: pkt}
		}
		transport.SendBurst(n, msgs)
		sent += uint64(burst)
		for consumed.Load() < sent {
			gort.Gosched()
		}
	}

	// Warm the pool, the mailbox and the message slice so the measured
	// rounds see only steady-state work.
	for i := 0; i < 64; i++ {
		send()
	}
	var m0, m1 gort.MemStats
	gort.GC()
	gort.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		send()
	}
	gort.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(rounds*burst)
}
