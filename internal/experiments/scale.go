package experiments

import (
	"fmt"
	"time"

	"chc/internal/nf"
	nfnat "chc/internal/nf/nat"
	"chc/internal/packet"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
)

// This file implements the `scale` experiment: the paper's deployment story
// that chains scale OUT — "dynamically add instances to meet demand" —
// while the datastore tier shards so "added instances scale linearly"
// (§7.1). Three segments:
//
//  1. A shards×instances goodput grid (the Fig 10 shape along a new axis):
//     chain goodput — injection through root-log deletion, i.e. every
//     offloaded update committed — is min(NF tier, store tier), so at a
//     fixed instance count goodput grows near-linearly with shard count
//     until the NF tier binds.
//  2. Elastic scale-out/in mid-run (ScaleOut/ScaleIn): loss-free, ordered,
//     via the Fig 4 handover machinery.
//  3. Single-shard crash/recovery in a 4-shard tier: only the failed
//     shard's slice of the client WALs is re-executed.

// countNF is the NF under test for the scaling grid: a passthrough whose
// state traffic is purely non-blocking (write-mostly counters plus one
// cached per-flow gauge), so the measured bottleneck is cleanly either the
// NF tier's service rate or the store tier's op rate — never a blocking-op
// stall — mirroring the role the paper's counter-style NATs play in Fig 10.
type countNF struct {
	decls nf.DeclSet
	total nf.Counter
	bytes nf.Counter
	seen  nf.Gauge
}

// Scale-experiment NF object IDs.
const (
	scaleObjTotal uint16 = 1
	scaleObjBytes uint16 = 2
	scaleObjSeen  uint16 = 3
)

func newCountNF() *countNF {
	c := &countNF{}
	c.total = c.decls.Counter(scaleObjTotal, "total-packets", store.ScopeGlobal, store.WriteMostly)
	c.bytes = c.decls.Counter(scaleObjBytes, "total-bytes", store.ScopeGlobal, store.WriteMostly)
	c.seen = c.decls.Gauge(scaleObjSeen, "flow-last-clock", store.ScopeFlow, store.ReadHeavy)
	return c
}

// Name implements nf.NF.
func (c *countNF) Name() string { return "count" }

// Decls implements nf.NF.
func (c *countNF) Decls() []store.ObjDecl { return c.decls.List() }

// scaleSubCounters stripes the write-mostly counters across sub-keys so
// their load spreads over the shard tier (one global sub-key would pin the
// whole write stream to a single hot shard — per-key ops are serial by
// design, so a hot key cannot scale past one shard).
const scaleSubCounters = 256

// Process implements nf.NF.
func (c *countNF) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	h := pkt.Key().Canonical().Hash()
	c.total.IncrAt(ctx, h%scaleSubCounters, 1)
	c.bytes.IncrAt(ctx, h%scaleSubCounters, int64(pkt.WireLen()))
	c.seen.Set(ctx, h, int64(ctx.Clock))
	return ctx.Emit(pkt)
}

// scaleGridConfig tunes the grid so one shard saturates below the offered
// load: NF instances serve ~2.5Gbps each (36µs × 8 threads, 1434B packets)
// and a shard serves ~0.5M ops/s (2µs/op) ≈ one instance's ~2 async ops
// per packet. Coalescing is off so every op hits the wire, and the ACK/RPC
// timeouts sit above the worst-case shard queue wait so saturation shows up
// as completion latency, not retransmit storms.
func scaleGridConfig(seed int64, shards int) runtime.ChainConfig {
	cfg := throughputConfig(seed)
	cfg.StoreShards = shards
	cfg.DefaultServiceTime = 36 * time.Microsecond
	cfg.StoreOpService = 2 * time.Microsecond
	cfg.CoalesceWindow = -1
	cfg.AckTimeout = 250 * time.Millisecond
	cfg.RPCTimeout = 500 * time.Millisecond
	return cfg
}

// Scale reproduces the scale-out deployment story: goodput by shard and
// instance count, elastic instance add/remove mid-run, and single-shard
// failure recovery.
func Scale(o Opts) *Table {
	t := &Table{
		ID:     "scale",
		Title:  "Sharded store + elastic NF scale-out",
		Header: []string{"setup", "goodput", "per-instance", "store-ops/s", "detail"},
	}

	grid := func(instances, shards int) {
		cfg := scaleGridConfig(o.Seed, shards)
		ch := runtime.New(cfg, runtime.VertexSpec{
			Name: "count", Make: func() nf.NF { return newCountNF() },
			Instances: instances, Backend: runtime.BackendCHC, Mode: store.ModeEOCNA,
		})
		ch.Start()
		tr := throughputTrace(o)
		tr.Pace(10_000_000_000)
		start := ch.Sim().Now()
		ch.RunTrace(tr, 0)
		// Completion = every packet's updates committed and its root log
		// entry deleted (Fig 6): the honest end-to-end finish line.
		for i := 0; i < 20000 && ch.Root.LogSize() > 0; i++ {
			ch.RunFor(time.Millisecond)
		}
		elapsed := time.Duration(ch.Sim().Now() - start)
		var bytes uint64
		for _, in := range ch.Vertices[0].Instances {
			bytes += in.BytesProcessed
		}
		var ops, maxOps uint64
		for _, s := range ch.Stores {
			so := s.OpsServed + s.AsyncServed
			ops += so
			if so > maxOps {
				maxOps = so
			}
		}
		goodput := runtime.ThroughputBps(bytes, elapsed)
		// Conservation: the striped sub-counters must sum to the trace
		// length across every shard (exactly-once, tier-wide).
		var total int64
		for k, v := range ch.StoreSnapshot().Entries {
			if k.Vertex == 1 && k.Obj == scaleObjTotal {
				total += v.Int
			}
		}
		detail := fmt.Sprintf("conserved=%v busiest-shard=%d%%",
			total == int64(tr.Len()), 100*maxOps/ops)
		t.AddRow(fmt.Sprintf("i=%d s=%d", instances, shards),
			gbps(goodput), gbps(goodput/float64(instances)),
			fmt.Sprintf("%.2fM", float64(ops)/elapsed.Seconds()/1e6), detail)
	}
	for _, c := range []struct{ i, s int }{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}} {
		grid(c.i, c.s)
	}

	t.AddRow(scaleElastic(o)...)
	t.AddRow(scaleShardCrash(o)...)
	t.Note("paper: \"state is sharded so added instances scale linearly\" (§7.1); " +
		"goodput = min(NF tier, store tier), so the s-sweep at i=4 is near-linear " +
		"in shards until the NF tier binds")
	t.Note("elastic segment: Fig 4 handovers move only remapped flows; shard-crash " +
		"segment: §5.4 recovery replays only the failed shard's WAL slice")
	return t
}

// scaleElastic runs one NAT vertex 1 -> 2 -> 1 instances under live traffic
// with caching on (handover must flush cached ops) over a 2-shard tier.
func scaleElastic(o Opts) []string {
	cfg := latencyConfig(o.Seed)
	cfg.StoreShards = 2
	ch := runtime.New(cfg, runtime.VertexSpec{
		Name: "nat", Make: func() nf.NF { return nfnat.New() },
		Backend: runtime.BackendCHC, Mode: store.ModeEOC,
	})
	ch.Start()
	v := ch.Vertices[0]
	v.Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })

	tr := background(o, 1394)
	tr.Pace(2_000_000_000)
	third := tr.Len() / 3

	// Reconfiguration goes through the declarative control plane: submit
	// the desired replica count and the controller emits the scale-out /
	// newest-first scale-in over the same Fig 4 machinery.
	ctl := ch.Controller()
	ch.RunTrace(&trace.Trace{Events: tr.Events[:third]}, 20*time.Millisecond)
	if _, err := ctl.ApplySpec(runtime.DeploymentSpec{
		Vertices: []runtime.VertexDesire{{Name: "nat", Replicas: 2}},
	}); err != nil {
		panic(err)
	}
	nu := v.Instances[1]
	ch.RunTrace(&trace.Trace{Events: tr.Events[third : 2*third]}, 50*time.Millisecond)
	if _, err := ctl.ApplySpec(runtime.DeploymentSpec{
		Vertices: []runtime.VertexDesire{{Name: "nat", Replicas: 1}},
	}); err != nil {
		panic(err)
	}
	ch.RunFor(15 * time.Millisecond) // let the drain grace elapse
	ch.RunTrace(&trace.Trace{Events: tr.Events[2*third:]}, 300*time.Millisecond)

	total, _ := ch.StoreGet(store.Key{Vertex: 1, Obj: nfnat.ObjTotal})
	acq := ch.Metrics.Get("handover.acquire")
	return []string{
		"elastic 1→2→1 (s=2)", "-", "-", "-",
		fmt.Sprintf("loss-free=%v moved-pkts@i2=%d handover-p95=%s dups=%d",
			total.Int == int64(tr.Len()), nu.Processed, us(acq.Percentile(95)), ch.Sink.Duplicates),
	}
}

// scaleShardCrash crashes one shard of a 4-shard tier mid-trace and
// recovers it per §5.4, reporting how much WAL re-execution the recovery
// cost versus the whole tier's retained WAL. Checkpointing is off so the
// recovery must replay the failed shard's entire WAL slice — making the
// "only that shard's keys" property directly visible in the op count.
func scaleShardCrash(o Opts) []string {
	cfg := latencyConfig(o.Seed)
	cfg.StoreShards = 4
	ch := runtime.New(cfg, runtime.VertexSpec{
		Name: "nat", Make: func() nf.NF { return nfnat.New() },
		Backend: runtime.BackendCHC, Mode: store.ModeEOCNA,
	})
	ch.Start()
	v := ch.Vertices[0]
	v.Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })

	tr := background(o, 1394)
	tr.Pace(2_000_000_000)
	half := tr.Len() / 2
	ch.RunTrace(&trace.Trace{Events: tr.Events[:half]}, 5*time.Millisecond)

	totalWal := 0
	for _, in := range v.Instances {
		totalWal += in.Client().WALLen()
	}
	took, reexec := ch.RecoverStoreShard(1, runtime.DefaultStoreRecoveryConfig())
	ch.RunTrace(&trace.Trace{Events: tr.Events[half:]}, 300*time.Millisecond)

	total, _ := ch.StoreGet(store.Key{Vertex: 1, Obj: nfnat.ObjTotal})
	return []string{
		"shard-crash (s=4)", "-", "-", "-",
		fmt.Sprintf("recovery=%s reexec=%d/%d wal-ops loss-free=%v",
			ms(took), reexec, totalWal, total.Int == int64(tr.Len())),
	}
}
