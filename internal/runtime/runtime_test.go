package runtime

import (
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/nf/nat"
	"chc/internal/nf/portscan"
	"chc/internal/nf/trojan"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/trace"
)

// testConfig is a fast deterministic config for correctness tests: single
// worker, 1µs service.
func testConfig() ChainConfig {
	cfg := DefaultChainConfig()
	cfg.DefaultServiceTime = time.Microsecond
	cfg.DefaultThreads = 1
	cfg.ClockPersistEvery = 10
	cfg.FlushEvery = 200 * time.Microsecond
	return cfg
}

func smallTrace(flows int) *trace.Trace {
	tr := trace.Generate(trace.Config{Seed: 5, Flows: flows, PktsPerFlowMean: 6,
		PayloadMedian: 600, Hosts: 16, Servers: 8})
	tr.Pace(2_000_000_000) // 2Gbps offered
	return tr
}

func natVertex(instances int, backend BackendKind, mode store.Mode) VertexSpec {
	return VertexSpec{
		Name:      "nat",
		Make:      func() nf.NF { return nat.New() },
		Instances: instances,
		Backend:   backend,
		Mode:      mode,
	}
}

func seedNAT(c *Chain, v *Vertex) {
	v.Seed(func(apply func(store.Request)) {
		nat.New().SeedPorts(apply)
	})
}

func TestChainEndToEnd(t *testing.T) {
	c := New(testConfig(), natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(50)
	c.RunTrace(tr, 50*time.Millisecond)

	if c.Sink.Received == 0 {
		t.Fatal("sink received nothing")
	}
	// NAT forwards everything except SYNs it can't allocate (pool is big
	// enough here) — all packets reach the sink.
	if int(c.Sink.Received) != tr.Len() {
		t.Fatalf("sink received %d of %d", c.Sink.Received, tr.Len())
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicate packets at the receiver", c.Sink.Duplicates)
	}
	// Clock uniqueness & root accounting.
	if c.Root.Injected != uint64(tr.Len()) {
		t.Fatalf("root injected %d of %d", c.Root.Injected, tr.Len())
	}
}

func TestRootLogDrains(t *testing.T) {
	// With the XOR/delete protocol, every packet whose updates committed
	// must eventually leave the root log.
	c := New(testConfig(), natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(30)
	c.RunTrace(tr, 100*time.Millisecond)
	if c.Root.LogSize() != 0 {
		t.Fatalf("root log holds %d packets after settle (deleted %d)",
			c.Root.LogSize(), c.Root.Deleted)
	}
	if c.Root.Deleted == 0 {
		t.Fatal("no deletes processed")
	}
}

func TestTraditionalBackendEndToEnd(t *testing.T) {
	c := New(testConfig(), natVertex(1, BackendTraditional, store.Mode{}))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(30)
	c.RunTrace(tr, 50*time.Millisecond)
	if int(c.Sink.Received) != tr.Len() {
		t.Fatalf("sink received %d of %d", c.Sink.Received, tr.Len())
	}
	if c.Root.LogSize() != 0 {
		t.Fatalf("root log holds %d for traditional chain", c.Root.LogSize())
	}
}

func TestSharedStateAcrossInstances(t *testing.T) {
	// Two NAT instances: the global packet counters must equal the trace
	// length exactly — offloaded ops serialize at the store (R3).
	c := New(testConfig(), natVertex(2, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(40)
	c.RunTrace(tr, 100*time.Millisecond)

	v, ok := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if !ok || v.Int != int64(tr.Len()) {
		t.Fatalf("total-packets = %v,%v want %d", v, ok, tr.Len())
	}
	// Both instances processed some traffic.
	i1, i2 := c.Vertices[0].Instances[0], c.Vertices[0].Instances[1]
	if i1.Processed == 0 || i2.Processed == 0 {
		t.Fatalf("lopsided processing: %d / %d", i1.Processed, i2.Processed)
	}
}

func TestClockMonotoneAtSingleInstance(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(20)
	c.RunTrace(tr, 50*time.Millisecond)
	// Per-root counter monotonicity is implied by Injected == trace length
	// and unique clocks at the sink (Duplicates == 0, checked elsewhere);
	// here check the root's final counter.
	if c.Root.Clock() != uint64(tr.Len()) {
		t.Fatalf("root clock %d, want %d", c.Root.Clock(), tr.Len())
	}
}

func TestElasticScaleOutMove(t *testing.T) {
	// Start with one NAT instance; scale out; move half the flows. State
	// handover must be loss-free: per-flow mappings keep working, and the
	// global counter still matches.
	c := New(testConfig(), natVertex(1, BackendCHC, store.ModeEOC))
	c.Start()
	seedNAT(c, c.Vertices[0])
	v := c.Vertices[0]

	tr := smallTrace(40)
	half := tr.Len() / 2
	first := &trace.Trace{Events: tr.Events[:half]}
	second := &trace.Trace{Events: tr.Events[half:]}

	c.RunTrace(first, 20*time.Millisecond)

	nu := c.Controller().AddInstance(v)
	// Move every flow (canonical hashes) to the new instance.
	keys := map[uint64]bool{}
	for _, e := range tr.Events {
		keys[e.Pkt.Key().Canonical().Hash()] = true
	}
	var keyList []uint64
	for k := range keys {
		keyList = append(keyList, k)
	}
	c.Controller().MoveFlows(v, keyList, nu)

	c.RunTrace(second, 200*time.Millisecond)

	if int(c.Sink.Received) != tr.Len() {
		t.Fatalf("sink received %d of %d (loss during move)", c.Sink.Received, tr.Len())
	}
	val, ok := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if !ok || val.Int != int64(tr.Len()) {
		t.Fatalf("total = %v want %d (updates lost in handover)", val, tr.Len())
	}
	if nu.Processed == 0 {
		t.Fatal("new instance processed nothing after move")
	}
}

func TestNFFailoverRecoversState(t *testing.T) {
	c := New(testConfig(), natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	v := c.Vertices[0]

	tr := smallTrace(40)
	half := tr.Len() / 2
	c.RunTrace(&trace.Trace{Events: tr.Events[:half]}, 10*time.Millisecond)

	old := v.Instances[0]
	old.Crash()
	nu := c.Controller().Failover(old)
	c.RunTrace(&trace.Trace{Events: tr.Events[half:]}, 200*time.Millisecond)

	// The shared counter must be exactly the number of distinct packets the
	// chain observed: replay + duplicate suppression must not double-count.
	val, _ := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if val.Int != int64(tr.Len()) {
		t.Fatalf("total = %d want %d (dup or lost updates in failover)", val.Int, tr.Len())
	}
	if nu.Processed == 0 {
		t.Fatal("failover instance processed nothing")
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicates at receiver after failover", c.Sink.Duplicates)
	}
}

func TestStragglerCloneDupSuppression(t *testing.T) {
	// A slow NAT gets a clone; with suppression the downstream detector
	// sees no duplicate packets and the store emulates duplicate updates.
	cfg := testConfig()
	c := New(cfg,
		natVertex(1, BackendCHC, store.ModeEOCNA),
		VertexSpec{Name: "portscan", Make: func() nf.NF { return portscan.New() },
			Instances: 1, Backend: BackendCHC, Mode: store.ModeEOCNA},
	)
	c.Start()
	seedNAT(c, c.Vertices[0])

	straggler := c.Vertices[0].Instances[0]
	straggler.ExtraDelay = func(intn func(int64) int64) time.Duration {
		return time.Duration(3+intn(7)) * time.Microsecond
	}

	tr := smallTrace(30)
	third := tr.Len() / 3
	c.RunTrace(&trace.Trace{Events: tr.Events[:third]}, 5*time.Millisecond)

	clone := c.Controller().CloneStraggler(straggler)
	c.RunTrace(&trace.Trace{Events: tr.Events[third:]}, 300*time.Millisecond)

	ps := c.Vertices[1].Instances[0]
	if ps.DupSeen == 0 {
		t.Fatal("replication produced no duplicates at downstream — experiment vacuous")
	}
	if ps.DupSeen != ps.Suppressed {
		t.Fatalf("downstream saw %d dups, suppressed %d", ps.DupSeen, ps.Suppressed)
	}
	if clone.Processed == 0 {
		t.Fatal("clone processed nothing")
	}
	// No duplicate packets must reach the sink.
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicates at sink", c.Sink.Duplicates)
	}
}

func TestRootFailover(t *testing.T) {
	cfg := testConfig()
	cfg.ClockPersistEvery = 5
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(20)
	c.RunTrace(tr, 50*time.Millisecond)
	before := c.Root.Clock()

	_, took := c.RecoverRoot()
	if took <= 0 || took > time.Millisecond {
		t.Fatalf("root recovery took %v", took)
	}
	// New root must start beyond any previously assigned clock.
	if c.Root.Clock() < before {
		t.Fatalf("recovered clock %d < %d: clock collision possible", c.Root.Clock(), before)
	}
	// Chain still works.
	tr2 := smallTrace(10)
	sinkBefore := c.Sink.Received
	c.RunTrace(tr2, 50*time.Millisecond)
	if c.Sink.Received == sinkBefore {
		t.Fatal("no traffic flowed after root recovery")
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("duplicate clocks after root recovery: %d", c.Sink.Duplicates)
	}
}

func TestStoreFailoverRecoversSharedState(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 5 * time.Millisecond
	c := New(cfg, natVertex(2, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(40)
	c.RunTrace(tr, 50*time.Millisecond)

	want, _ := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	took, _ := c.RecoverStore(DefaultStoreRecoveryConfig())
	if took <= 0 {
		t.Fatal("no recovery time measured")
	}
	got, ok := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if !ok || got.Int != want.Int {
		t.Fatalf("recovered total = %v,%v want %v", got, ok, want)
	}
	// Chain continues to work against the recovered store.
	tr2 := smallTrace(10)
	c.RunTrace(tr2, 100*time.Millisecond)
	got2, _ := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if got2.Int != want.Int+int64(tr2.Len()) {
		t.Fatalf("post-recovery total = %d want %d", got2.Int, want.Int+int64(tr2.Len()))
	}
}

func TestOffPathTapReceivesCopies(t *testing.T) {
	c := New(testConfig(),
		natVertex(1, BackendCHC, store.ModeEOCNA),
		VertexSpec{Name: "portscan", Make: func() nf.NF { return portscan.New() },
			Instances: 1, Backend: BackendCHC, Mode: store.ModeEOCNA, OffPath: true},
	)
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(20)
	c.RunTrace(tr, 50*time.Millisecond)
	tap := c.Vertices[1].Instances[0]
	if tap.Processed == 0 {
		t.Fatal("off-path tap saw no traffic")
	}
	// Off-path copies must not reach the sink twice.
	if int(c.Sink.Received) != tr.Len() {
		t.Fatalf("sink received %d of %d", c.Sink.Received, tr.Len())
	}
}

func TestSplitterScopePartitioning(t *testing.T) {
	// With per-host partitioning (portscan's coarsest scope), both
	// directions of all of a host's flows must land on one instance.
	c := New(testConfig(),
		VertexSpec{Name: "portscan", Make: func() nf.NF { return portscan.New() },
			Instances: 3, Backend: BackendCHC, Mode: store.ModeEOCNA},
	)
	c.Start()
	sp := c.Vertices[0].Splitter
	if sp.Scope() != store.ScopeSrcIP {
		t.Fatalf("initial scope = %v, want srcip (coarsest non-global)", sp.Scope())
	}
	tr := smallTrace(40)
	c.RunTrace(tr, 50*time.Millisecond)

	// Reconstruct host->instance from instance seen clocks is awkward;
	// instead verify the partitioning function directly.
	for _, e := range tr.Events {
		a := sp.instanceFor(c.topo.Load(), partKey(e.Pkt, sp.Scope()))
		rev := e.Pkt.Clone()
		rev.SrcIP, rev.DstIP = e.Pkt.DstIP, e.Pkt.SrcIP
		rev.SrcPort, rev.DstPort = e.Pkt.DstPort, e.Pkt.SrcPort
		b := sp.instanceFor(c.topo.Load(), partKey(rev, sp.Scope()))
		if a != b {
			t.Fatalf("direction split across instances for %v", e.Pkt.Key())
		}
	}
}

func TestSplitterRefine(t *testing.T) {
	c := New(testConfig(),
		VertexSpec{Name: "portscan", Make: func() nf.NF { return portscan.New() },
			Instances: 2, Backend: BackendCHC, Mode: store.ModeEOC},
	)
	c.Start()
	sp := c.Vertices[0].Splitter
	if !sp.Refine() {
		t.Fatal("refine failed")
	}
	if sp.Scope() != store.ScopeFlow {
		t.Fatalf("scope after refine = %v", sp.Scope())
	}
	if sp.Refine() {
		t.Fatal("refine beyond finest scope")
	}
}

func TestGrantsExclusive(t *testing.T) {
	c := New(testConfig(),
		VertexSpec{Name: "portscan", Make: func() nf.NF { return portscan.New() },
			Instances: 2, Backend: BackendCHC, Mode: store.ModeEOC},
	)
	c.Start()
	sp := c.Vertices[0].Splitter
	// Partitioned per-host: per-host objects exclusive, global not.
	if !sp.GrantsExclusive(store.ScopeSrcIP) {
		t.Fatal("srcip objects should be exclusive under srcip partitioning")
	}
	if !sp.GrantsExclusive(store.ScopeFlow) {
		t.Fatal("flow objects should be exclusive under srcip partitioning")
	}
	if sp.GrantsExclusive(store.ScopeGlobal) {
		t.Fatal("global objects can never be exclusive with 2 instances")
	}
	// Refined to flow scope: per-host objects lose exclusivity.
	sp.Refine()
	if sp.GrantsExclusive(store.ScopeSrcIP) {
		t.Fatal("srcip objects must not be exclusive under flow partitioning")
	}
}

func TestVertexManagerStats(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, natVertex(2, BackendCHC, store.ModeEOCNA))
	var got [][]InstanceStats
	c.Vertices[0].Manager.OnStats = func(s []InstanceStats) { got = append(got, s) }
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(20)
	c.RunTrace(tr, 50*time.Millisecond)
	if len(got) == 0 {
		t.Fatal("vertex manager produced no stats")
	}
	last := got[len(got)-1]
	var total uint64
	for _, s := range last {
		total += s.Processed
	}
	if total == 0 {
		t.Fatal("stats show no processing")
	}
}

func TestRootLogLimitDrops(t *testing.T) {
	cfg := testConfig()
	cfg.RootLogLimit = 5
	cfg.XORCheck = true
	// No NF vertex consumes deletes slower than injection here, so use a
	// straggler to force log buildup.
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	c.Vertices[0].Instances[0].ExtraDelay = func(intn func(int64) int64) time.Duration {
		return 500 * time.Microsecond
	}
	tr := smallTrace(20)
	c.RunTrace(tr, 2*time.Millisecond)
	if c.Root.Dropped == 0 {
		t.Fatal("root never dropped despite tiny log limit and slow NF")
	}
}

func TestTrojanChainOrderingUnderSlowScrubber(t *testing.T) {
	// Mini-R4: scrubber vertex adds random 50-100µs delay; the off-path
	// Trojan detector (clock-ordered) must still detect implanted
	// signatures.
	cfg := testConfig()
	passThrough := VertexSpec{Name: "scrubber", Make: func() nf.NF { return passNF{} },
		Instances: 1, Backend: BackendTraditional}
	c := New(cfg,
		passThrough,
		VertexSpec{Name: "trojan", Make: func() nf.NF { return trojan.New() },
			Instances: 1, Backend: BackendCHC, Mode: store.ModeEOCNA, OffPath: true},
	)
	c.Start()
	c.Vertices[0].Instances[0].ExtraDelay = func(intn func(int64) int64) time.Duration {
		return time.Duration(50+intn(51)) * time.Microsecond
	}
	tr := trace.Generate(trace.Config{Seed: 4, Flows: 60, PktsPerFlowMean: 4,
		PayloadMedian: 400, Hosts: 8, Servers: 4})
	sigs := trace.InjectTrojan(tr, 3, 77)
	tr.Pace(2_000_000_000)
	c.RunTrace(tr, 100*time.Millisecond)

	if got := c.Metrics.AlertCount("trojan-detected"); got != len(sigs) {
		t.Fatalf("detected %d of %d signatures", got, len(sigs))
	}
}

// passNF forwards everything unchanged (scrubber stand-in).
type passNF struct{}

func (passNF) Name() string           { return "pass" }
func (passNF) Decls() []store.ObjDecl { return nil }
func (passNF) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	return []*packet.Packet{pkt}
}
