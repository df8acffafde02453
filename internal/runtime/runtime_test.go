package runtime

import (
	"fmt"
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/nf/nat"
	"chc/internal/nf/portscan"
	"chc/internal/nf/trojan"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
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

// TestFailoverWithExhaustedPool: a NAT with one or two ports fails most
// SYNs' pops, and each failed pop commits. Failover replays the packets
// still logged, failed pops among them, after FINs have returned ports to
// the pool: the store emulates each replayed pop with its logged failure,
// so it neither hands out a port the first pass did not nor commits a
// second time, which would cancel the first commit and keep the packet
// logged (one packet in each case while the store logged only successful
// ops for duplicate suppression).
func TestFailoverWithExhaustedPool(t *testing.T) {
	for _, tc := range []struct {
		ports int64
		flows int
	}{{1, 40}, {2, 80}} {
		t.Run(fmt.Sprintf("ports=%d/flows=%d", tc.ports, tc.flows), func(t *testing.T) {
			c := New(testConfig(), natVertex(1, BackendCHC, store.ModeEO))
			c.Start()
			v := c.Vertices[0]
			v.Seed(func(apply func(store.Request)) {
				n := nat.New()
				n.PortRangeCount = tc.ports
				n.SeedPorts(apply)
			})

			tr := smallTrace(tc.flows)
			half := tr.Len() / 2
			// No settle: crash with packets still in flight, so failover
			// replays.
			c.RunTrace(&trace.Trace{Events: tr.Events[:half]}, 0)
			old := v.Instances[0]
			old.Crash()
			c.Controller().Failover(old)
			c.RunTrace(&trace.Trace{Events: tr.Events[half:]}, 200*time.Millisecond)

			if c.Metrics.AlertCount("port-exhausted") == 0 {
				t.Fatal("no pop failed: the pool never ran out and the test is vacuous")
			}
			if c.Root.Replayed == 0 {
				t.Fatal("failover replayed nothing: the test is vacuous")
			}
			if c.Root.LogSize() != 0 || c.Root.Injected != c.Root.Deleted {
				logStuckClocks(t, c)
				t.Fatalf("injected=%d deleted=%d log=%d, want every clock deleted",
					c.Root.Injected, c.Root.Deleted, c.Root.LogSize())
			}
			if c.Sink.Duplicates != 0 {
				t.Fatalf("%d duplicates at receiver after failover", c.Sink.Duplicates)
			}
		})
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
		rev := *e.Pkt
		rev.SrcIP, rev.DstIP = e.Pkt.DstIP, e.Pkt.SrcIP
		rev.SrcPort, rev.DstPort = e.Pkt.DstPort, e.Pkt.SrcPort
		b := sp.instanceFor(c.topo.Load(), partKey(&rev, sp.Scope()))
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

// TestReplayDrainAdmitsParkedPackets reaches endReplay's drain on the DES:
// a replay target parks a fresh live packet and a live copy of a clock it
// then processes as replay traffic. After the end-of-replay marker the
// fresh packet is processed and the copy is suppressed and counted.
func TestReplayDrainAdmitsParkedPackets(t *testing.T) {
	c := New(testConfig(), VertexSpec{Name: "pass", Make: func() nf.NF { return nf.Pass{} },
		Backend: BackendTraditional})
	c.Start()
	in := c.Vertices[0].Instances[0]
	in.StartReplayTarget()
	send := func(clock uint64, flags uint8) {
		pkt := &packet.Packet{SrcIP: 0x0A000001, DstIP: 0x08080808, SrcPort: 4000, DstPort: 80,
			Proto: packet.ProtoTCP, TCPFlags: packet.FlagSYN}
		pkt.Meta.Clock = packet.MakeClock(0, clock)
		pkt.Meta.Flags = flags
		pkt.Meta.CloneID = in.ID
		if flags&packet.MetaLastRp != 0 {
			pkt = &packet.Packet{Meta: pkt.Meta}
		}
		c.Net().Send(transport.Message{From: "driver", To: in.Endpoint, Payload: pkt, Size: pkt.WireLen()})
	}
	send(1, 0)                 // fresh: parked
	send(2, 0)                 // live copy of clock 2: parked
	send(2, packet.MetaReplay) // replayed clock 2: processed at once
	c.RunFor(time.Millisecond)
	if in.Processed != 1 || len(in.parked) != 2 {
		t.Fatalf("before the marker: processed=%d parked=%d, want 1 and 2", in.Processed, len(in.parked))
	}
	send(0, packet.MetaReplay|packet.MetaLastRp)
	c.RunFor(time.Millisecond)
	if in.busy() {
		t.Fatal("the last marker did not end the replay")
	}
	if in.Processed != 2 || in.Suppressed != 1 || in.DupSeen != 1 || in.DupStateEvents != 1 {
		t.Fatalf("after the drain: processed=%d suppressed=%d dupSeen=%d dupStateEvents=%d, want 2 1 1 1",
			in.Processed, in.Suppressed, in.DupSeen, in.DupStateEvents)
	}
	if c.Sink.Received != 2 || c.Sink.Duplicates != 0 {
		t.Fatalf("sink received %d (duplicates %d), want clocks 1 and 2 once each",
			c.Sink.Received, c.Sink.Duplicates)
	}
}

// TestScaleInWaitsForReplayDrain scales in a replay target that holds
// parked packets, before its last end-of-replay marker arrives. Each
// drained packet takes longer than the scale-in poll interval, so a poll
// lands while one is in process with the inbox empty and the processed
// count unchanged. The drained packets count as in flight, so the
// instance retires only after the drain: every parked packet is processed
// once and the root log empties. When the drain did not count them, the
// poll crashed the instance mid-drain and the rest of its parked packets
// stayed in the root log.
func TestScaleInWaitsForReplayDrain(t *testing.T) {
	c := New(testConfig(), VertexSpec{Name: "pass", Make: func() nf.NF { return nf.Pass{} },
		Instances: 2, Backend: BackendTraditional})
	c.Start()
	v := c.Vertices[0]
	in := v.Instances[1]
	v.Splitter.IdxFn = func(*packet.Packet) int { return 1 }
	in.ExtraDelay = func(func(int64) int64) time.Duration { return 2 * time.Millisecond }
	in.StartReplayTarget()
	const parked = 4
	for k := 0; k < parked; k++ {
		c.Inject(&packet.Packet{SrcIP: 0x0A000001, DstIP: 0x08080808, SrcPort: uint16(4000 + k),
			DstPort: 80, Proto: packet.ProtoTCP, TCPFlags: packet.FlagSYN}, c.Now())
	}
	c.RunFor(time.Millisecond)
	if !in.busy() || len(in.parked) != parked {
		t.Fatalf("before the marker: %d parked, want %d", len(in.parked), parked)
	}
	c.scaleIn(v, in, 100*time.Microsecond)
	c.RunFor(2 * time.Millisecond)
	marker := &packet.Packet{}
	marker.Meta.Flags = packet.MetaReplay | packet.MetaLastRp
	marker.Meta.CloneID = in.ID
	c.Net().Send(transport.Message{From: "driver", To: in.Endpoint, Payload: marker, Size: marker.WireLen()})
	c.RunFor(50 * time.Millisecond)
	if !c.topo.Load().dead[in.ID] {
		t.Fatal("the drained instance never retired")
	}
	if in.Processed != parked || c.Sink.Received != parked || c.Sink.Duplicates != 0 {
		t.Fatalf("processed %d, sink received %d (duplicates %d), want each of %d parked packets once",
			in.Processed, c.Sink.Received, c.Sink.Duplicates, parked)
	}
	if c.Root.LogSize() != 0 || c.Root.Injected != c.Root.Deleted {
		logStuckClocks(t, c)
		t.Fatalf("root log=%d injected=%d deleted=%d, want it drained",
			c.Root.LogSize(), c.Root.Injected, c.Root.Deleted)
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
	passThrough := VertexSpec{Name: "scrubber", Make: func() nf.NF { return nf.Pass{} },
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
