package runtime

import (
	"fmt"
	"testing"
	"time"

	"chc/internal/nf"
	nfnat "chc/internal/nf/nat"
	"chc/internal/store"
	"chc/internal/transport"
)

// netTestNodes splits the chain across two nodes so the hot path crosses
// real sockets: node A hosts the framework components and instance 1,
// node B hosts instance 2 only. The bare "v1" prefix on node A homes
// every OTHER v1 instance there — including replacements minted by
// failover, whose endpoints (v1.i3, ...) did not exist when the map was
// declared.
func netTestNodes() []transport.NodeSpec {
	return []transport.NodeSpec{
		{Name: "a", Endpoints: []string{"root0", "sink", "store0", "driver", "framework", "v1"}},
		{Name: "b", Endpoints: []string{"v1.i2"}},
	}
}

// netNATChain deploys a single-NF chain on a loopback netnet cluster:
// every node runs in this process, but traffic between endpoints homed on
// different nodes round-trips through the wire codec and a real TCP
// socket.
func netNATChain(t *testing.T, seed int64) *Chain {
	t.Helper()
	cfg := NetChainConfig(netTestNodes(), "")
	cfg.Seed = seed
	ch := New(cfg, VertexSpec{
		Name:      "nat",
		Make:      func() nf.NF { return nfnat.New() },
		Instances: 2,
		Backend:   BackendCHC,
		Mode:      store.ModeEOCNA,
	})
	ch.Start()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	return ch
}

// TestNetLinearConservation runs real traffic through a cluster-mode
// netnet chain and checks the DES-pinned invariants hold when instance 2's
// packets and store RPCs cross sockets: conservation, an empty in-flight
// log, no duplicates at the sink — plus proof that the run actually used
// the network (remote message/call/byte counters all nonzero).
func TestNetLinearConservation(t *testing.T) {
	ch := netNATChain(t, 7)
	tr := liveTrace(7, 60)
	ch.RunTrace(tr, 100*time.Millisecond)
	if !ch.AwaitDrained(10 * time.Second) {
		st, _ := ch.QueryRootStats(time.Second)
		t.Fatalf("chain did not drain: injected=%d deleted=%d log=%d",
			st.Injected, st.Deleted, st.LogSize)
	}
	ch.Stop()
	if ch.Root.Injected == 0 {
		t.Fatal("no packets injected")
	}
	if ch.Root.Injected != ch.Root.Deleted {
		t.Fatalf("conservation violated: injected=%d deleted=%d", ch.Root.Injected, ch.Root.Deleted)
	}
	if ch.Root.LogSize() != 0 {
		t.Fatalf("XOR/delete imbalance: %d packets still logged", ch.Root.LogSize())
	}
	if ch.Sink.Duplicates != 0 {
		t.Fatalf("sink saw %d duplicate deliveries", ch.Sink.Duplicates)
	}
	if ch.Sink.Received == 0 {
		t.Fatal("sink received nothing")
	}
	ns := ch.NetStats()
	if ns.RemoteMsgs == 0 || ns.RemoteCalls == 0 || ns.RemoteBytes == 0 {
		t.Fatalf("chain never crossed a socket: %+v", ns)
	}
}

// TestNetFailoverReplay crashes the REMOTE-node instance mid-stream and
// fails over with root replay: the §5.4 story where the replay traffic,
// the state re-binding RPCs and the replacement's catch-up all cross the
// codec and sockets. The replacement (v1.i3) hashes onto node A via the
// bare "v1" prefix, so the failover also re-homes the vertex across nodes.
// Runs with the same back-to-back failover counts as the live test.
func TestNetFailoverReplay(t *testing.T) {
	for _, rounds := range failoverRounds {
		t.Run(fmt.Sprintf("failovers=%d", rounds), func(t *testing.T) { netFailoverReplay(t, rounds) })
	}
}

func netFailoverReplay(t *testing.T, rounds int) {
	ch := netNATChain(t, 11)
	ch.Root.traceCommits = map[uint64][]store.Commit{}
	tr := liveTrace(11, 80)

	crashed := make(chan struct{})
	go func() {
		time.Sleep(time.Duration(tr.Duration()) / 2)
		// On a loaded machine the pacer may still be warming up at the
		// trace's wall-clock midpoint; wait until the victim has really
		// processed cross-socket traffic so the crash is mid-stream.
		i2 := ch.Vertices[0].Instances[1] // v1.i2, homed on node b
		for i := 0; i < 5000 && i2.ProcessedCount() == 0; i++ {
			time.Sleep(time.Millisecond)
		}
		for victim, i := i2, 0; i < rounds; i++ {
			victim = ch.Controller().Failover(victim)
		}
		close(crashed)
	}()

	ch.RunTrace(tr, 100*time.Millisecond)
	<-crashed
	if !ch.AwaitDrained(15 * time.Second) {
		st, _ := ch.QueryRootStats(time.Second)
		ch.Stop()
		logStuckClocks(t, ch)
		t.Fatalf("chain did not drain after failover: injected=%d deleted=%d log=%d replayed=%d",
			st.Injected, st.Deleted, st.LogSize, st.Replayed)
	}
	ch.Stop()
	if ch.Root.Injected != ch.Root.Deleted {
		logStuckClocks(t, ch)
		t.Fatalf("conservation violated after failover: injected=%d deleted=%d",
			ch.Root.Injected, ch.Root.Deleted)
	}
	if ch.Root.LogSize() != 0 {
		logStuckClocks(t, ch)
		t.Fatalf("XOR residue after failover: %d packets still logged", ch.Root.LogSize())
	}
	if ch.Sink.Duplicates != 0 {
		t.Fatalf("sink saw %d duplicates (suppression failed under failover)", ch.Sink.Duplicates)
	}
	if ns := ch.NetStats(); ns.RemoteMsgs == 0 {
		t.Fatalf("failover run never crossed a socket: %+v", ns)
	}
}

// TestNetRecoveryEquivalence runs the checkpoint → crash → recovery
// equivalence check over loopback netnet: the recovered shard state must
// be byte-identical to what the crash destroyed even though the WAL
// inputs were produced by clients whose ops crossed the wire codec.
func TestNetRecoveryEquivalence(t *testing.T) {
	cfg := NetChainConfig([]transport.NodeSpec{
		{Name: "a", Endpoints: []string{"root0", "sink", "store0", "driver", "framework", "v1.i1"}},
		{Name: "b", Endpoints: []string{"v1"}},
	}, "")
	cfg.Seed = 301
	cfg.CheckpointEvery = 20 * time.Millisecond
	c := New(cfg, countVertex(2, store.ModeEOCNA))
	c.Start()
	tr := liveTrace(cfg.Seed, 80)
	c.RunTrace(tr, 100*time.Millisecond)
	if !c.AwaitDrained(15 * time.Second) {
		t.Fatalf("chain did not drain (log=%d)", c.Root.LogSize())
	}
	if cs := c.Stores[0].CheckpointStats(); cs.Taken == 0 {
		t.Fatal("no checkpoint taken")
	}

	before := nfEntriesDigest(c.Stores[0].Engine())
	_, reexec := c.RecoverStore(DefaultStoreRecoveryConfig())
	if after := nfEntriesDigest(c.Stores[0].Engine()); after != before {
		t.Fatal("recovered state diverges from pre-crash state")
	}

	tr2 := liveTrace(cfg.Seed+1000, 40)
	c.RunTrace(tr2, 100*time.Millisecond)
	if !c.AwaitDrained(15 * time.Second) {
		t.Fatalf("chain did not drain after recovery (log=%d, reexec=%d)", c.Root.LogSize(), reexec)
	}
	c.Stop()
	if c.Root.Injected != c.Root.Deleted {
		t.Fatalf("conservation violated: injected=%d deleted=%d", c.Root.Injected, c.Root.Deleted)
	}
	if c.Sink.Duplicates != 0 {
		t.Fatalf("%d duplicates at the receiver", c.Sink.Duplicates)
	}
	if total := conservedTotal(c); total != int64(tr.Len()+tr2.Len()) {
		t.Fatalf("counter conservation violated: %d of %d", total, tr.Len()+tr2.Len())
	}
	if ns := c.NetStats(); ns.RemoteCalls == 0 {
		t.Fatalf("recovery run never crossed a socket: %+v", ns)
	}
}
