package runtime

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"chc/internal/store"
	"chc/internal/trace"
)

// desDigest summarizes everything a DES run observably produced: root and
// sink accounting, per-instance work, and the harvested client counters.
// Two runs with byte-identical event schedules digest identically.
func desDigest(c *Chain) string {
	c.HarvestClientStats()
	s := fmt.Sprintf("root injected=%d deleted=%d dropped=%d log=%d\n",
		c.Root.Injected, c.Root.Deleted, c.Root.Dropped, c.Root.LogSize())
	s += fmt.Sprintf("sink received=%d bytes=%d dups=%d\n",
		c.Sink.Received, c.Sink.Bytes, c.Sink.Duplicates)
	for _, v := range c.Vertices {
		for _, in := range c.topo.Load().slotsOf(v) {
			s += fmt.Sprintf("inst %s processed=%d bytes=%d suppressed=%d\n",
				in.Endpoint, in.Processed, in.BytesProcessed, in.Suppressed)
		}
	}
	keys := make([]string, 0, len(c.Metrics.Counters))
	for k := range c.Metrics.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf("ctr %s=%d\n", k, c.Metrics.Counters[k])
	}
	return s
}

// TestBurstConfigDESParity pins the central batching invariant: on the
// DES substrate the effective burst size is ALWAYS 1 regardless of
// ChainConfig.BurstSize, so the deterministic event schedule — the golden
// oracle the live path is validated against — is untouched by batching
// configuration.
func TestBurstConfigDESParity(t *testing.T) {
	run := func(burst int) string {
		cfg := testConfig()
		cfg.BurstSize = burst
		c := New(cfg, natVertex(2, BackendCHC, store.ModeEOCNA))
		c.Start()
		seedNAT(c, c.Vertices[0])
		c.RunTrace(smallTrace(40), 50*time.Millisecond)
		return desDigest(c)
	}
	base := run(0)
	for _, burst := range []int{1, 32, 256} {
		if got := run(burst); got != base {
			t.Fatalf("DES digest changed under BurstSize=%d:\n--- base ---\n%s--- got ---\n%s",
				burst, base, got)
		}
	}
	// Sanity: the DES genuinely routes traffic (the digests are not
	// trivially empty) and never counts a burst flush.
	cfg := testConfig()
	cfg.BurstSize = 64
	c := New(cfg, natVertex(2, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	c.RunTrace(smallTrace(40), 50*time.Millisecond)
	if c.Root.Injected == 0 {
		t.Fatal("parity scenario injected nothing")
	}
	if c.Root.Bursts != 0 {
		t.Fatalf("DES performed %d burst flushes; burst size must pin to 1", c.Root.Bursts)
	}
	if c.Arena().Reuses() != 0 || c.Arena().Puts() != 0 {
		t.Fatalf("DES arena recycled (reuses=%d puts=%d); the arena must be disabled off-live",
			c.Arena().Reuses(), c.Arena().Puts())
	}
}

// soakScale stretches the burst soak by CHC_SOAK_SECONDS (CI sets it for
// the long -race soak; the default keeps `go test` fast).
func soakScale() int {
	if s := os.Getenv("CHC_SOAK_SECONDS"); s != "" {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err == nil && n > 0 {
			return n
		}
	}
	return 1
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
	flows := 80 * soakScale()
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
	cfg.BurstSize = 8 // small bursts: more flush boundaries around the crash
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
