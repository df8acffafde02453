package runtime

import (
	"testing"
	"time"

	"chc/internal/nf/nat"
	"chc/internal/simnet"
	"chc/internal/store"
	"chc/internal/trace"
)

// subTrace slices a trace into a run segment.
func subTrace(tr *trace.Trace, from, to int) *trace.Trace {
	return &trace.Trace{Events: tr.Events[from:to]}
}

// TestShardedStateMatchesSingleShard: running the same deterministic trace
// against a 3-shard tier must converge to exactly the same final store
// contents as the single-server tier — sharding changes placement and
// timing, never values.
func TestShardedStateMatchesSingleShard(t *testing.T) {
	run := func(shards int) map[store.Key]store.Value {
		cfg := testConfig()
		cfg.StoreShards = shards
		c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA))
		c.Start()
		seedNAT(c, c.Vertices[0])
		c.RunTrace(smallTrace(40), 300*time.Millisecond)
		return c.StoreSnapshot().Entries
	}
	one, three := run(1), run(3)
	if len(one) != len(three) {
		t.Fatalf("entry counts differ: 1 shard %d, 3 shards %d", len(one), len(three))
	}
	for k, v := range one {
		v3, ok := three[k]
		if !ok {
			t.Fatalf("key %v missing from sharded tier", k)
		}
		if !v.Equal(v3) {
			t.Fatalf("key %v: 1 shard %v, 3 shards %v", k, v, v3)
		}
	}
}

// TestShardCrashRecoveryReplaysOnlyShardKeys: recovering one shard of a
// 3-shard tier must re-execute only that shard's slice of the client WALs
// and must not touch the surviving shard servers at all.
func TestShardCrashRecoveryReplaysOnlyShardKeys(t *testing.T) {
	cfg := testConfig()
	cfg.StoreShards = 3
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])

	tr := smallTrace(40)
	half := len(tr.Events) / 2
	c.RunTrace(subTrace(tr, 0, half), 20*time.Millisecond)

	inst := c.Vertices[0].Instances[0]
	pm := c.Partition()
	crashIdx := 1
	shardWal, otherWal := 0, 0
	for _, shard := range pm.Shards {
		if shard == c.Stores[crashIdx].Name {
			shardWal += len(inst.Client().WAL(shard))
		} else {
			otherWal += len(inst.Client().WAL(shard))
		}
	}
	if shardWal == 0 || otherWal == 0 {
		t.Fatalf("test vacuous: shard WAL %d, other WAL %d", shardWal, otherWal)
	}

	survivor0, survivor2 := c.Stores[0], c.Stores[2]
	_, reexec := c.RecoverStoreShard(crashIdx, DefaultStoreRecoveryConfig())
	if reexec == 0 || reexec > shardWal {
		t.Fatalf("reexec = %d, want in (0, %d] (only the crashed shard's keys)", reexec, shardWal)
	}
	if c.Stores[0] != survivor0 || c.Stores[2] != survivor2 {
		t.Fatal("surviving shard servers were replaced by a single-shard recovery")
	}

	// The tier keeps absorbing traffic exactly-once after the recovery.
	c.RunTrace(subTrace(tr, half, len(tr.Events)), 500*time.Millisecond)
	v, ok := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if !ok || v.Int != int64(tr.Len()) {
		t.Fatalf("total = %v,%v want %d after shard recovery", v, ok, tr.Len())
	}
}

// TestLossyShardLinksExactlyOnce: duplicate suppression must hold per shard
// when retransmissions race across a partitioned tier — every shard dedups
// its own keys' (clock, key) pairs and async sequence numbers.
func TestLossyShardLinksExactlyOnce(t *testing.T) {
	cfg := testConfig()
	cfg.StoreShards = 2
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])

	inst := c.Vertices[0].Instances[0]
	lossy := simnet.LinkConfig{Latency: cfg.LinkLatency, LossProb: 0.10}
	for _, s := range c.Stores {
		c.Net().SetLink(inst.Endpoint, s.Name, lossy)
		c.Net().SetLink(s.Name, inst.Endpoint, lossy)
	}

	tr := smallTrace(30)
	c.RunTrace(tr, 500*time.Millisecond)

	if inst.Client().Retransmits == 0 {
		t.Fatal("no retransmissions under 10% loss — test vacuous")
	}
	v, ok := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if !ok || v.Int != int64(tr.Len()) {
		t.Fatalf("total = %v,%v want exactly %d under loss across 2 shards", v, ok, tr.Len())
	}
}

// TestScaleOutScaleIn: adding an instance mid-run and draining it back out
// must be loss-free and duplicate-free, with the handovers carried by the
// Fig 4 protocol and the drained instance actually retired.
func TestScaleOutScaleIn(t *testing.T) {
	cfg := testConfig()
	cfg.StoreShards = 2
	c := New(cfg, natVertex(1, BackendCHC, store.ModeEOC))
	c.Start()
	v := c.Vertices[0]
	seedNAT(c, v)

	tr := smallTrace(45)
	third := len(tr.Events) / 3

	c.RunTrace(subTrace(tr, 0, third), 20*time.Millisecond)
	c.Controller().DrainGrace = 5 * time.Millisecond
	applyReplicas(t, c, "nat", 2)
	nu := v.Instances[1]
	c.RunTrace(subTrace(tr, third, 2*third), 50*time.Millisecond)
	if nu.Processed == 0 {
		t.Fatal("scale-out instance received no traffic")
	}
	applyReplicas(t, c, "nat", 1)
	c.RunFor(10 * time.Millisecond)
	if !c.topo.Load().dead[nu.ID] {
		t.Fatal("drained instance still alive after grace")
	}
	before := c.Vertices[0].Instances[0].Processed
	c.RunTrace(subTrace(tr, 2*third, len(tr.Events)), 500*time.Millisecond)
	if c.Vertices[0].Instances[0].Processed == before {
		t.Fatal("survivor processed nothing after scale-in")
	}

	total, ok := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if !ok || total.Int != int64(tr.Len()) {
		t.Fatalf("total = %v,%v want %d across scale-out/in", total, ok, tr.Len())
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("receiver saw %d duplicates", c.Sink.Duplicates)
	}
	// Fig 6 exactness: every packet's updates committed across the whole
	// elastic lifecycle, so the root log fully drains (no XOR residue from
	// handovers — the ownership seeding makes acquires wait for releases).
	c.RunFor(50 * time.Millisecond)
	if n := c.Root.LogSize(); n != 0 {
		t.Fatalf("root log retains %d packets (uncommitted updates after scaling)", n)
	}
}
