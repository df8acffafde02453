package runtime

import (
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/nf/nat"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/trace"
)

// tallyNF counts every packet it processes in a shared store counter and
// forwards it unchanged — the minimal store-backed NF for branch-routing
// assertions (each vertex's counter key is namespaced by its vertex ID, so
// per-branch totals are directly readable).
type tallyNF struct {
	decls nf.DeclSet
	total nf.Counter
}

const tallyObjTotal uint16 = 1

func newTallyNF() *tallyNF {
	n := &tallyNF{}
	n.total = n.decls.Counter(tallyObjTotal, "total", store.ScopeGlobal, store.WriteMostly)
	return n
}

func (n *tallyNF) Name() string           { return "tally" }
func (n *tallyNF) Decls() []store.ObjDecl { return n.decls.List() }
func (n *tallyNF) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	n.total.Incr(ctx, 1)
	return ctx.Emit(pkt)
}

func tallyVertex(name string, instances int) VertexSpec {
	return VertexSpec{Name: name, Make: func() nf.NF { return newTallyNF() },
		Instances: instances, Backend: BackendCHC, Mode: store.ModeEOCNA}
}

// mixedTrace generates a deterministic TCP/UDP class mix.
func mixedTrace(flows int, udpFrac float64) *trace.Trace {
	tr := trace.Generate(trace.Config{Seed: 11, Flows: flows, PktsPerFlowMean: 5,
		PayloadMedian: 600, Hosts: 16, Servers: 8, UDPFrac: udpFrac})
	tr.Pace(2_000_000_000)
	return tr
}

func classCounts(tr *trace.Trace) (tcp, udp int) {
	for _, e := range tr.Events {
		if e.Pkt.Proto == packet.ProtoUDP {
			udp++
		} else {
			tcp++
		}
	}
	return
}

// forkTopology routes TCP through vertex a and UDP through vertex b.
func forkTopology(a, b string) *TopologySpec {
	return &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: []string{a}},
		{Class: "udp", Vertices: []string{b}},
	}}
}

// TestDAGForkRouting: a two-branch fork must route each class down its own
// branch only, conserve packets per class (Fig 6 balance), and fully drain
// the root log.
func TestDAGForkRouting(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = forkTopology("tcpnf", "udpnf")
	c := New(cfg, tallyVertex("tcpnf", 1), tallyVertex("udpnf", 1))
	c.Start()

	tr := mixedTrace(40, 0.4)
	tcpN, udpN := classCounts(tr)
	if tcpN == 0 || udpN == 0 {
		t.Fatalf("trace vacuous: tcp=%d udp=%d", tcpN, udpN)
	}
	c.RunTrace(tr, 200*time.Millisecond)

	tcpV, udpV := c.VertexByName("tcpnf"), c.VertexByName("udpnf")
	if got := tcpV.Instances[0].Processed; got != uint64(tcpN) {
		t.Fatalf("tcp branch processed %d, want %d", got, tcpN)
	}
	if got := udpV.Instances[0].Processed; got != uint64(udpN) {
		t.Fatalf("udp branch processed %d, want %d", got, udpN)
	}
	// Store-side conservation per branch.
	for _, w := range []struct {
		v    *Vertex
		want int
	}{{tcpV, tcpN}, {udpV, udpN}} {
		val, ok := c.StoreGet(store.Key{Vertex: w.v.ID, Obj: tallyObjTotal})
		if !ok || val.Int != int64(w.want) {
			t.Fatalf("vertex %s counter = %v,%v want %d", w.v.Spec.Name, val, ok, w.want)
		}
	}
	// Per-class chain clocks balance: injected == deleted for every class.
	for ci, name := range c.Classes() {
		if c.Root.InjectedByClass[ci] != c.Root.DeletedByClass[ci] {
			t.Fatalf("class %s unbalanced: injected=%d deleted=%d",
				name, c.Root.InjectedByClass[ci], c.Root.DeletedByClass[ci])
		}
	}
	if int(c.Sink.Received) != tr.Len() || c.Sink.Duplicates != 0 {
		t.Fatalf("sink received=%d dups=%d want %d/0", c.Sink.Received, c.Sink.Duplicates, tr.Len())
	}
	if c.Sink.ReceivedByClass[0] != uint64(tcpN) || c.Sink.ReceivedByClass[1] != uint64(udpN) {
		t.Fatalf("sink class split %v, want tcp=%d udp=%d", c.Sink.ReceivedByClass, tcpN, udpN)
	}
	if n := c.Root.LogSize(); n != 0 {
		t.Fatalf("root log retains %d packets", n)
	}
}

// TestDAGForkRejoin: branches that rejoin before the sink must present the
// rejoin vertex with every packet exactly once, with per-branch ordering
// preserved through its splitter.
func TestDAGForkRejoin(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: []string{"tcpnf", "join"}},
		{Class: "udp", Vertices: []string{"udpnf", "join"}},
	}}
	c := New(cfg, tallyVertex("tcpnf", 1), tallyVertex("udpnf", 1), tallyVertex("join", 2))
	c.Start()

	tr := mixedTrace(40, 0.4)
	c.RunTrace(tr, 300*time.Millisecond)

	join := c.VertexByName("join")
	var joined uint64
	for _, in := range join.Instances {
		joined += in.Processed
	}
	if joined != uint64(tr.Len()) {
		t.Fatalf("rejoin vertex processed %d, want %d", joined, tr.Len())
	}
	val, ok := c.StoreGet(store.Key{Vertex: join.ID, Obj: tallyObjTotal})
	if !ok || val.Int != int64(tr.Len()) {
		t.Fatalf("rejoin counter = %v,%v want %d", val, ok, tr.Len())
	}
	if int(c.Sink.Received) != tr.Len() || c.Sink.Duplicates != 0 {
		t.Fatalf("sink received=%d dups=%d want %d/0", c.Sink.Received, c.Sink.Duplicates, tr.Len())
	}
	if n := c.Root.LogSize(); n != 0 {
		t.Fatalf("root log retains %d packets", n)
	}
}

// TestDAGTrivialSpecMatchesLinear: an explicit one-class topology listing
// every on-path vertex in declaration order must behave exactly like the
// nil (linear) spec — same final store state and accounting.
func TestDAGTrivialSpecMatchesLinear(t *testing.T) {
	run := func(topo *TopologySpec) (*Chain, int) {
		cfg := testConfig()
		cfg.Topology = topo
		c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA),
			VertexSpec{Name: "tally", Make: func() nf.NF { return newTallyNF() },
				Backend: BackendCHC, Mode: store.ModeEOCNA})
		c.Start()
		seedNAT(c, c.Vertices[0])
		tr := smallTrace(30)
		c.RunTrace(tr, 200*time.Millisecond)
		return c, tr.Len()
	}
	lin, n := run(nil)
	triv, _ := run(&TopologySpec{
		Classify: func(*packet.Packet) string { return "all" },
		Paths:    []PathSpec{{Class: "all", Vertices: []string{"nat", "tally"}}},
	})
	if lin.Sink.Received != triv.Sink.Received || lin.Root.Deleted != triv.Root.Deleted {
		t.Fatalf("trivial topology diverged: sink %d/%d deleted %d/%d",
			lin.Sink.Received, triv.Sink.Received, lin.Root.Deleted, triv.Root.Deleted)
	}
	a, b := lin.StoreSnapshot().Entries, triv.StoreSnapshot().Entries
	if len(a) != len(b) {
		t.Fatalf("store entry counts differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || !v.Equal(bv) {
			t.Fatalf("key %v: linear %v, trivial-DAG %v", k, v, bv)
		}
	}
	_ = n
}

// TestDAGBranchScaleOutIn: Chain.ScaleOut/ScaleIn must work on a vertex
// that sits on only one branch of the DAG — handovers stay inside the
// branch and the other branch is untouched.
func TestDAGBranchScaleOutIn(t *testing.T) {
	cfg := testConfig()
	cfg.StoreShards = 2
	cfg.Topology = forkTopology("nat", "udpnf")
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOC), tallyVertex("udpnf", 1))
	c.Start()
	v := c.VertexByName("nat")
	seedNAT(c, v)

	tr := mixedTrace(45, 0.35)
	tcpN, udpN := classCounts(tr)
	third := len(tr.Events) / 3

	c.RunTrace(subTrace(tr, 0, third), 20*time.Millisecond)
	c.Controller().DrainGrace = 5 * time.Millisecond
	applyReplicas(t, c, "nat", 2)
	nu := v.Instances[1]
	c.RunTrace(subTrace(tr, third, 2*third), 50*time.Millisecond)
	if nu.Processed == 0 {
		t.Fatal("scale-out instance on the tcp branch received no traffic")
	}
	applyReplicas(t, c, "nat", 1)
	c.RunFor(10 * time.Millisecond)
	if !nu.dead {
		t.Fatal("drained branch instance still alive after grace")
	}
	c.RunTrace(subTrace(tr, 2*third, len(tr.Events)), 500*time.Millisecond)

	total, ok := c.StoreGet(store.Key{Vertex: v.ID, Obj: nat.ObjTotal})
	if !ok || total.Int != int64(tcpN) {
		t.Fatalf("nat total = %v,%v want %d (tcp class only)", total, ok, tcpN)
	}
	udpTotal, _ := c.StoreGet(store.Key{Vertex: c.VertexByName("udpnf").ID, Obj: tallyObjTotal})
	if udpTotal.Int != int64(udpN) {
		t.Fatalf("udp branch total = %d want %d (scaling leaked across branches)", udpTotal.Int, udpN)
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("receiver saw %d duplicates", c.Sink.Duplicates)
	}
	c.RunFor(50 * time.Millisecond)
	if n := c.Root.LogSize(); n != 0 {
		t.Fatalf("root log retains %d packets after branch scaling", n)
	}
}

// TestDAGBranchMoveFlows: a Fig 4 handover on a branch-only vertex must be
// loss-free for the branch and invisible to the other branch.
func TestDAGBranchMoveFlows(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = forkTopology("nat", "udpnf")
	c := New(cfg, natVertex(2, BackendCHC, store.ModeEOC), tallyVertex("udpnf", 1))
	c.Start()
	v := c.VertexByName("nat")
	seedNAT(c, v)

	tr := mixedTrace(40, 0.35)
	tcpN, _ := classCounts(tr)
	half := len(tr.Events) / 2
	c.RunTrace(subTrace(tr, 0, half), 20*time.Millisecond)

	// Move every TCP flow to instance 2.
	keys := map[uint64]bool{}
	for _, e := range tr.Events {
		if e.Pkt.Proto == packet.ProtoTCP {
			keys[e.Pkt.Key().Canonical().Hash()] = true
		}
	}
	var keyList []uint64
	for k := range keys {
		keyList = append(keyList, k)
	}
	c.Controller().MoveFlows(v, keyList, v.Instances[1])
	c.RunTrace(subTrace(tr, half, len(tr.Events)), 300*time.Millisecond)

	total, ok := c.StoreGet(store.Key{Vertex: v.ID, Obj: nat.ObjTotal})
	if !ok || total.Int != int64(tcpN) {
		t.Fatalf("nat total = %v,%v want %d (updates lost in branch handover)", total, ok, tcpN)
	}
	if v.Instances[1].Processed == 0 {
		t.Fatal("move target processed nothing")
	}
	if int(c.Sink.Received) != tr.Len() || c.Sink.Duplicates != 0 {
		t.Fatalf("sink received=%d dups=%d want %d/0", c.Sink.Received, c.Sink.Duplicates, tr.Len())
	}
}

// TestDAGBranchFailoverReplaysOnlyBranch: crashing and failing over an
// instance on one branch must replay only that branch's logged packets —
// the other branch never sees replay traffic.
func TestDAGBranchFailoverReplaysOnlyBranch(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = forkTopology("nat", "udpnf")
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA), tallyVertex("udpnf", 1))
	c.Start()
	v := c.VertexByName("nat")
	seedNAT(c, v)
	udpInst := c.VertexByName("udpnf").Instances[0]

	tr := mixedTrace(40, 0.35)
	tcpN, udpN := classCounts(tr)
	half := len(tr.Events) / 2
	// No settle: crash with packets still in flight so the root log is
	// non-empty and the failover actually replays.
	c.RunTrace(subTrace(tr, 0, half), 0)
	if c.Root.LogSize() == 0 {
		t.Fatal("root log empty at crash time — replay test vacuous")
	}

	old := v.Instances[0]
	old.Crash()
	nu := c.Controller().Failover(old)
	c.RunTrace(subTrace(tr, half, len(tr.Events)), 300*time.Millisecond)

	if nu.Processed == 0 {
		t.Fatal("failover instance processed nothing")
	}
	// The udp branch must never have seen a replayed clock: every clock it
	// receives is fresh, so its duplicate counter stays zero.
	if udpInst.DupSeen != 0 {
		t.Fatalf("udp branch saw %d replayed/duplicate packets", udpInst.DupSeen)
	}
	if c.Root.Replayed == 0 {
		t.Fatal("no replay happened — test vacuous")
	}
	if c.Root.Replayed > uint64(tcpN) {
		t.Fatalf("replayed %d packets > %d tcp-class packets: other branch replayed too",
			c.Root.Replayed, tcpN)
	}
	// Exactly-once state on both branches after recovery.
	total, _ := c.StoreGet(store.Key{Vertex: v.ID, Obj: nat.ObjTotal})
	if total.Int != int64(tcpN) {
		t.Fatalf("nat total = %d want %d after branch failover", total.Int, tcpN)
	}
	udpTotal, _ := c.StoreGet(store.Key{Vertex: c.VertexByName("udpnf").ID, Obj: tallyObjTotal})
	if udpTotal.Int != int64(udpN) {
		t.Fatalf("udp total = %d want %d", udpTotal.Int, udpN)
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicates at receiver after branch failover", c.Sink.Duplicates)
	}
}

// TestDAGTopologyValidation: malformed specs must be rejected at New.
func TestDAGTopologyValidation(t *testing.T) {
	mustPanic := func(name string, topo *TopologySpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: New did not panic", name)
			}
		}()
		cfg := testConfig()
		cfg.Topology = topo
		New(cfg, tallyVertex("a", 1), tallyVertex("b", 1))
	}
	mustPanic("unknown vertex", &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: []string{"nope"}}}})
	mustPanic("empty path", &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: nil}}})
	mustPanic("duplicate class", &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: []string{"a"}},
		{Class: "tcp", Vertices: []string{"b"}}}})
	mustPanic("cycle", &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: []string{"a", "b"}},
		{Class: "udp", Vertices: []string{"b", "a"}}}})
	mustPanic("orphan on-path vertex", &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: []string{"a"}}}})
	mustPanic("no paths", &TopologySpec{})
}

// TestDownstreamVertexFailover: failing over an instance of a vertex that
// is NOT the head of its path requires replayed packets to travel THROUGH
// the upstream vertex, which already processed them — they must be
// re-executed in emulation there, not suppressed, or the clone never
// rebuilds state.
func TestDownstreamVertexFailover(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA), tallyVertex("tail", 1))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tailV := c.VertexByName("tail")

	tr := smallTrace(40)
	half := len(tr.Events) / 2
	c.RunTrace(subTrace(tr, 0, half), 0)
	if c.Root.LogSize() == 0 {
		t.Fatal("root log empty at crash time — replay test vacuous")
	}

	old := tailV.Instances[0]
	old.Crash()
	nu := c.Controller().Failover(old)
	c.RunTrace(subTrace(tr, half, len(tr.Events)), 500*time.Millisecond)

	if nu.Processed == 0 {
		t.Fatal("downstream failover instance processed nothing (replay starved)")
	}
	// Exactly-once at BOTH vertices despite upstream re-execution.
	natTotal, _ := c.StoreGet(store.Key{Vertex: c.Vertices[0].ID, Obj: nat.ObjTotal})
	if natTotal.Int != int64(tr.Len()) {
		t.Fatalf("nat total = %d want %d (upstream re-execution double-applied)", natTotal.Int, tr.Len())
	}
	tailTotal, _ := c.StoreGet(store.Key{Vertex: tailV.ID, Obj: tallyObjTotal})
	if tailTotal.Int != int64(tr.Len()) {
		t.Fatalf("tail total = %d want %d (replay lost at downstream failover)", tailTotal.Int, tr.Len())
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicates at receiver", c.Sink.Duplicates)
	}
	c.RunFor(100 * time.Millisecond)
	if n := c.Root.LogSize(); n != 0 {
		t.Fatalf("root log retains %d packets after downstream failover", n)
	}
}

// TestDAGRejoinVertexFailover: failing over the rejoin vertex — on BOTH
// classes' paths — replays both branches' packets, waits for one marker
// per class before draining, and keeps every class exactly-once.
func TestDAGRejoinVertexFailover(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = &TopologySpec{Paths: []PathSpec{
		{Class: "tcp", Vertices: []string{"tcpnf", "join"}},
		{Class: "udp", Vertices: []string{"udpnf", "join"}},
	}}
	c := New(cfg, tallyVertex("tcpnf", 1), tallyVertex("udpnf", 1), tallyVertex("join", 1))
	c.Start()
	join := c.VertexByName("join")

	tr := mixedTrace(40, 0.4)
	half := len(tr.Events) / 2
	c.RunTrace(subTrace(tr, 0, half), 0)
	if c.Root.LogSize() == 0 {
		t.Fatal("root log empty at crash time — replay test vacuous")
	}

	old := join.Instances[0]
	old.Crash()
	nu := c.Controller().Failover(old)
	c.RunTrace(subTrace(tr, half, len(tr.Events)), 500*time.Millisecond)

	if nu.Processed == 0 {
		t.Fatal("rejoin failover instance processed nothing")
	}
	if nu.markersLeft > 0 {
		t.Fatalf("clone still waiting for %d end-of-replay markers", nu.markersLeft)
	}
	tcpN, udpN := classCounts(tr)
	for _, w := range []struct {
		name string
		want int
	}{{"tcpnf", tcpN}, {"udpnf", udpN}, {"join", tr.Len()}} {
		v := c.VertexByName(w.name)
		val, _ := c.StoreGet(store.Key{Vertex: v.ID, Obj: tallyObjTotal})
		if val.Int != int64(w.want) {
			t.Fatalf("%s total = %d want %d after rejoin failover", w.name, val.Int, w.want)
		}
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicates at receiver", c.Sink.Duplicates)
	}
	c.RunFor(100 * time.Millisecond)
	if n := c.Root.LogSize(); n != 0 {
		t.Fatalf("root log retains %d packets after rejoin failover", n)
	}
}

// TestRootFailoverWithoutClockPersistence: with ClockPersistEvery: 0 the
// recovered root cannot read a persisted floor; it must still never
// recycle clocks (recycled clocks read as already-finished packets to
// every dedup structure, silently dropping state updates).
func TestRootFailoverWithoutClockPersistence(t *testing.T) {
	cfg := testConfig()
	cfg.ClockPersistEvery = 0
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])

	tr := smallTrace(20)
	c.RunTrace(tr, 100*time.Millisecond)
	before := c.Root.Clock()
	c.RecoverRoot()
	if c.Root.Clock() < before {
		t.Fatalf("recovered clock %d < %d: clocks recycled", c.Root.Clock(), before)
	}

	tr2 := smallTrace(25)
	c.RunTrace(tr2, 200*time.Millisecond)
	total, _ := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if total.Int != int64(tr.Len()+tr2.Len()) {
		t.Fatalf("total = %d want %d (post-recovery updates absorbed as duplicates)",
			total.Int, tr.Len()+tr2.Len())
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicate clocks at sink after recovery", c.Sink.Duplicates)
	}
}
