package runtime

import (
	"fmt"
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/trace"
)

// ckptCountNF is the NF under test for the checkpoint/recovery suite: a
// passthrough with striped write-mostly global counters (offloaded async,
// WAL-logged — the state checkpoints must cover) and one cached per-flow
// gauge (recovered from NF caches, §5.4). Set-semantics per-flow state is
// what the paper's recovery path guarantees; totals give the conservation
// invariant (sum over stripes == packets injected).
type ckptCountNF struct {
	decls nf.DeclSet
	total nf.Counter
	seen  nf.Gauge
}

const (
	ckptObjTotal uint16 = 1
	ckptObjSeen  uint16 = 2
	ckptStripes         = 32
)

func newCkptCountNF() *ckptCountNF {
	c := &ckptCountNF{}
	c.total = c.decls.Counter(ckptObjTotal, "total-packets", store.ScopeGlobal, store.WriteMostly)
	c.seen = c.decls.Gauge(ckptObjSeen, "flow-last-clock", store.ScopeFlow, store.ReadHeavy)
	return c
}

func (c *ckptCountNF) Name() string           { return "count" }
func (c *ckptCountNF) Decls() []store.ObjDecl { return c.decls.List() }
func (c *ckptCountNF) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	h := pkt.Key().Canonical().Hash()
	c.total.IncrAt(ctx, h%ckptStripes, 1)
	c.seen.Set(ctx, h, int64(ctx.Clock))
	return ctx.Emit(pkt)
}

func countVertex(instances int, mode store.Mode) VertexSpec {
	return VertexSpec{Name: "count", Make: func() nf.NF { return newCkptCountNF() },
		Instances: instances, Backend: BackendCHC, Mode: mode}
}

// nfEntriesDigest is the recovery-equivalence comparison digest: the
// content ID of the engine's NF-state entries in canonical encoding.
// Vertex-0 (framework) keys are excluded — the root re-persists its clock
// itself and those writes bypass client WALs — and TS/Owners are stripped:
// the TS vector is a per-instance replay-position marker that legitimately
// differs between replay orders, and recovery re-associates per-flow
// owners from caches.
func nfEntriesDigest(eng *store.Engine) string {
	snap := eng.Snapshot()
	for k := range snap.Entries {
		if k.Vertex == 0 {
			delete(snap.Entries, k)
		}
	}
	snap.TS = map[uint16]uint64{}
	snap.Owners = map[store.Key]uint16{}
	return store.Identify(store.EncodeSnapshot(snap))
}

// conservedTotal sums the striped global counters across the whole store
// tier (the Fig 6 conservation invariant: exactly-once, tier-wide).
func conservedTotal(c *Chain) int64 {
	var total int64
	for k, v := range c.StoreSnapshot().Entries {
		if k.Vertex == 1 && k.Obj == ckptObjTotal {
			total += v.Int
		}
	}
	return total
}

func drainRootLog(t *testing.T, c *Chain) {
	t.Helper()
	for i := 0; i < 20000 && c.Root.LogSize() > 0; i++ {
		c.RunFor(time.Millisecond)
	}
	if c.Root.LogSize() != 0 {
		t.Fatalf("root log did not drain: %d packets in flight", c.Root.LogSize())
	}
}

// TestCheckpointRecoveryEquivalence is the chain-level differential
// (shard counts × checkpoint intervals × modes): at quiescence the
// recovered shard's NF state must be byte-identical to the state the
// crash destroyed, whether recovery replayed the full WAL (interval off)
// or loaded a checkpoint and replayed only the truncated tail. Under
// ModeEO no cache holds the per-flow gauge, so only the checkpoint can:
// truncation dropped its WAL entries.
func TestCheckpointRecoveryEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, interval := range []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond} {
			t.Run(fmt.Sprintf("shards=%d interval=%s", shards, interval), func(t *testing.T) {
				for _, mode := range []store.Mode{store.ModeEO, store.ModeEOC, store.ModeEOCNA} {
					t.Run("mode="+mode.Name(), func(t *testing.T) {
						cfg := testConfig()
						cfg.StoreShards = shards
						cfg.CheckpointEvery = interval
						c := New(cfg, countVertex(2, mode))
						c.Start()
						tr := smallTrace(40)
						c.RunTrace(tr, 50*time.Millisecond)
						drainRootLog(t, c)

						idx := 0
						if shards > 1 {
							idx = 1
						}
						if interval > 0 && c.Stores[idx].CheckpointStats().Taken == 0 {
							t.Fatal("vacuous: no checkpoint was ever taken")
						}
						before := nfEntriesDigest(c.Stores[idx].Engine())
						_, reexec := c.RecoverStoreShard(idx, DefaultStoreRecoveryConfig())
						after := nfEntriesDigest(c.Stores[idx].Engine())
						if before != after {
							t.Fatalf("recovered state diverges from pre-crash state:\n  before %s\n  after  %s",
								before, after)
						}
						if interval == 0 && reexec == 0 {
							t.Fatal("vacuous: full-replay control re-executed nothing")
						}
						if total := conservedTotal(c); total != int64(tr.Len()) {
							t.Fatalf("conservation violated after recovery: %d of %d", total, tr.Len())
						}
					})
				}
			})
		}
	}
}

// runBurstThenAwaitCheckpoints drives one traffic burst to quiescence and
// then steps virtual time until the checkpoint area satisfies ok. Two
// bursts separated by a checkpoint boundary leave the second burst's ops
// between the two retained checkpoints — exactly the WAL span that
// truncation (which lags behind the OLDEST retained checkpoint) must keep
// so that falling back from a bad newest checkpoint loses nothing.
func runBurstThenAwaitCheckpoints(t *testing.T, c *Chain, ev []trace.Event, st *store.Stable, ok func(store.CheckpointStats) bool) {
	t.Helper()
	c.RunTrace(&trace.Trace{Events: ev}, 2*time.Millisecond)
	drainRootLog(t, c)
	for i := 0; i < 400; i++ {
		if ok(st.Stats()) {
			return
		}
		c.RunFor(100 * time.Microsecond)
	}
	t.Fatalf("checkpoint area never reached the awaited state: %+v", st.Stats())
}

// TestMidCheckpointCrashFallsBack crashes the shard inside a checkpoint's
// durable-write window: the in-progress (torn) checkpoint must be ignored,
// the previous stable one used, and the WAL tail behind it replayed — the
// recovered state byte-identical to what the crash destroyed.
func TestMidCheckpointCrashFallsBack(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 10 * time.Millisecond
	cfg.CheckpointWriteCost = time.Millisecond
	c := New(cfg, countVertex(2, store.ModeEOCNA))
	c.Start()
	tr := smallTrace(400)
	half := tr.Len() / 2
	st := c.Stores[0].StableState()

	// Burst 1 is covered by the first stable checkpoint; burst 2 lands
	// after it, so its ops are the WAL tail recovery must replay. Crash
	// inside the NEXT checkpoint's write window (torn entry present).
	runBurstThenAwaitCheckpoints(t, c, tr.Events[:half], st,
		func(cs store.CheckpointStats) bool { return cs.Taken >= 1 })
	runBurstThenAwaitCheckpoints(t, c, tr.Events[half:], st,
		func(cs store.CheckpointStats) bool { return cs.Torn == 1 && cs.Taken >= 1 })

	snap, ck, skipped := st.LatestVerified()
	if snap == nil || skipped != 1 || !ck.Committed {
		t.Fatalf("LatestVerified skipped=%d ck=%+v; want the torn entry skipped and the stable one used", skipped, ck)
	}
	before := nfEntriesDigest(c.Stores[0].Engine())
	_, reexec := c.RecoverStore(DefaultStoreRecoveryConfig())
	if reexec == 0 {
		t.Fatal("vacuous: the WAL tail behind the stable checkpoint replayed nothing")
	}
	if after := nfEntriesDigest(c.Stores[0].Engine()); after != before {
		t.Fatal("recovered state diverges from the state the crash destroyed")
	}

	// The chain keeps working against the recovered shard.
	tr2 := smallTrace(50)
	c.RunTrace(tr2, 50*time.Millisecond)
	drainRootLog(t, c)
	if c.Root.Injected != c.Root.Deleted {
		t.Fatalf("XOR conservation violated: injected=%d deleted=%d", c.Root.Injected, c.Root.Deleted)
	}
	if total := conservedTotal(c); total != int64(tr.Len()+tr2.Len()) {
		t.Fatalf("conservation violated: %d of %d", total, tr.Len()+tr2.Len())
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicates at the receiver", c.Sink.Duplicates)
	}
}

// TestCorruptCheckpointFallsBack bit-flips the newest stored checkpoint:
// content-hash verification must reject it and recovery fall back to the
// previous stable checkpoint plus the longer WAL tail, converging to the
// same state, invariants intact.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 10 * time.Millisecond
	c := New(cfg, countVertex(2, store.ModeEOCNA))
	c.Start()
	tr := smallTrace(400)
	half := tr.Len() / 2
	st := c.Stores[0].StableState()

	runBurstThenAwaitCheckpoints(t, c, tr.Events[:half], st,
		func(cs store.CheckpointStats) bool { return cs.Taken >= 1 })
	taken := st.Stats().Taken
	runBurstThenAwaitCheckpoints(t, c, tr.Events[half:], st,
		func(cs store.CheckpointStats) bool { return cs.Taken > taken && cs.Retained >= 2 })

	cks := st.Checkpoints()
	if len(cks) < 2 {
		t.Fatalf("only %d checkpoints retained", len(cks))
	}
	// Bit rot in stable storage: flip one byte of the newest checkpoint.
	newest := cks[len(cks)-1]
	newest.Data[len(newest.Data)/3] ^= 0x20

	before := nfEntriesDigest(c.Stores[0].Engine())
	_, reexec := c.RecoverStore(DefaultStoreRecoveryConfig())
	if reexec == 0 {
		t.Fatal("vacuous: fallback recovery replayed nothing despite the longer tail")
	}
	if cs := c.Stores[0].CheckpointStats(); cs.Rejected < 1 {
		t.Fatalf("corrupt checkpoint was not rejected: %+v", cs)
	}
	if after := nfEntriesDigest(c.Stores[0].Engine()); after != before {
		t.Fatal("recovered state diverges from the state the crash destroyed")
	}

	tr2 := smallTrace(50)
	c.RunTrace(tr2, 50*time.Millisecond)
	drainRootLog(t, c)
	if c.Root.Injected != c.Root.Deleted {
		t.Fatalf("XOR conservation violated: injected=%d deleted=%d", c.Root.Injected, c.Root.Deleted)
	}
	if total := conservedTotal(c); total != int64(tr.Len()+tr2.Len()) {
		t.Fatalf("conservation violated: %d of %d", total, tr.Len()+tr2.Len())
	}
}

// TestLiveCheckpointRecovery exercises checkpoint → WAL truncation →
// crash → bounded recovery on real goroutines: after the chain drains, the
// wall-clock checkpointer must empty every client WAL behind its covering
// TS, recovery must reproduce the destroyed state byte-identically with
// (near-)zero re-execution, and the chain must keep processing traffic
// against the recovered shard with every invariant intact.
func TestLiveCheckpointRecovery(t *testing.T) {
	budget := soakBudget(2 * time.Second)
	deadline := time.Now().Add(budget)
	for round := 1; round == 1 || time.Now().Before(deadline); round++ {
		cfg := LiveChainConfig()
		cfg.Seed = int64(300 + round)
		cfg.CheckpointEvery = 20 * time.Millisecond
		c := New(cfg, countVertex(2, store.ModeEOCNA))
		c.Start()
		tr := liveTrace(cfg.Seed, 80)
		c.RunTrace(tr, 100*time.Millisecond)
		if !c.AwaitDrained(15 * time.Second) {
			t.Fatalf("round %d: chain did not drain (log=%d)", round, c.Root.LogSize())
		}

		if cs := c.Stores[0].CheckpointStats(); cs.Taken == 0 {
			t.Fatalf("round %d: no checkpoint taken in a live run", round)
		}
		// Truncation: with the chain idle, the next checkpoint covers every
		// WAL-logged op, so client WALs must drain to empty.
		walLen := func() int {
			n := 0
			for _, in := range c.Vertices[0].Instances {
				n += in.Client().WALLen()
			}
			return n
		}
		truncDeadline := time.Now().Add(5 * time.Second)
		for walLen() > 0 && time.Now().Before(truncDeadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := walLen(); n > 0 {
			t.Fatalf("round %d: %d WAL ops survived checkpoint truncation", round, n)
		}

		before := nfEntriesDigest(c.Stores[0].Engine())
		took, reexec := c.RecoverStore(DefaultStoreRecoveryConfig())
		if after := nfEntriesDigest(c.Stores[0].Engine()); after != before {
			t.Fatalf("round %d: recovered state diverges from pre-crash state", round)
		}
		// Bounded RTO: the WALs were truncated behind the checkpoint, so
		// recovery loads the snapshot and replays an empty tail.
		if reexec != 0 {
			t.Fatalf("round %d: recovery re-executed %d ops despite truncated WALs", round, reexec)
		}
		if took <= 0 {
			t.Fatalf("round %d: no recovery time measured", round)
		}

		tr2 := liveTrace(cfg.Seed+1000, 40)
		c.RunTrace(tr2, 100*time.Millisecond)
		if !c.AwaitDrained(15 * time.Second) {
			t.Fatalf("round %d: chain did not drain after recovery (log=%d)", round, c.Root.LogSize())
		}
		c.Stop()
		if c.Root.Injected != c.Root.Deleted {
			t.Fatalf("round %d: conservation violated: injected=%d deleted=%d",
				round, c.Root.Injected, c.Root.Deleted)
		}
		if c.Root.LogSize() != 0 {
			t.Fatalf("round %d: XOR residue: %d packets logged", round, c.Root.LogSize())
		}
		if c.Sink.Duplicates != 0 {
			t.Fatalf("round %d: %d duplicates at the receiver", round, c.Sink.Duplicates)
		}
		if total := conservedTotal(c); total != int64(tr.Len()+tr2.Len()) {
			t.Fatalf("round %d: counter conservation violated: %d of %d",
				round, total, tr.Len()+tr2.Len())
		}
	}
}

// TestLiveDefaultBoundsWAL: a live chain checkpoints without being asked
// to, so once it drains its client WALs empty. Without checkpoints a WAL
// holds every op logged since the start.
func TestLiveDefaultBoundsWAL(t *testing.T) {
	cfg := LiveChainConfig()
	cfg.Seed = 401
	c := New(cfg, countVertex(2, store.ModeEOCNA))
	c.Start()
	defer c.Stop()
	tr := liveTrace(cfg.Seed, 80)
	c.RunTrace(tr, 100*time.Millisecond)
	if !c.AwaitDrained(15 * time.Second) {
		t.Fatalf("chain did not drain (log=%d)", c.Root.LogSize())
	}
	walLen := func() int {
		n := 0
		for _, in := range c.Vertices[0].Instances {
			n += in.Client().WALLen()
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for walLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if cs := c.Stores[0].CheckpointStats(); cs.Taken == 0 {
		t.Fatal("the live default took no checkpoint")
	}
	if n := walLen(); n > 0 {
		t.Fatalf("%d WAL ops held after the chain drained", n)
	}
	var dropped uint64
	for _, in := range c.Vertices[0].Instances {
		dropped += in.Client().RecoveryState(c.Stores[0].Name).Dropped
	}
	if dropped == 0 {
		t.Fatal("vacuous: no WAL entry was ever logged")
	}
}
