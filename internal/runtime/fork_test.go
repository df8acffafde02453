package runtime

import (
	"os"
	"strconv"
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	"chc/internal/nf/portscan"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// soakBudget is a soak test's wall-clock budget: CHC_SOAK_SECONDS when set
// (make live-soak sets 30), else def, which keeps `go test` fast.
func soakBudget(def time.Duration) time.Duration {
	if n, err := strconv.Atoi(os.Getenv("CHC_SOAK_SECONDS")); err == nil && n > 0 {
		return time.Duration(n) * time.Second
	}
	return def
}

// netForkNodes splits the fork chain across two nodes so the hot path
// crosses real TCP sockets: node a hosts the framework, the store shard and
// every vertex, node b hosts ONLY the NAT's second instance (v1.i2). The
// bare "v1" prefix on node a homes every other v1 instance there —
// including the replacement minted by failover — so crashing v1.i2 also
// re-homes the vertex across nodes.
func netForkNodes() []transport.NodeSpec {
	return []transport.NodeSpec{
		{Name: "a", Endpoints: []string{"root0", "sink", "store0", "driver", "framework", "v1", "v2", "v3"}},
		{Name: "b", Endpoints: []string{"v1.i2"}},
	}
}

// forkRows are the substrates the fork-failover checks run on, each with
// the NAT instance its crash injector fails over.
var forkRows = []struct {
	name   string
	cfg    func() ChainConfig
	victim int
}{
	{"live", LiveChainConfig, 0},
	{"net", func() ChainConfig { return NetChainConfig(netForkNodes(), "") }, 1}, // v1.i2, on node b
}

// forkChain deploys the policy DAG under cfg: TCP forks through the NAT,
// UDP through the scan detector, both rejoining at the load balancer, so a
// NAT crash exercises branch-local replay while the other branch keeps
// serving.
func forkChain(cfg ChainConfig) *Chain {
	cfg.Topology = &TopologySpec{
		Paths: []PathSpec{
			{Class: "tcp", Vertices: []string{"nat", "lb"}},
			{Class: "udp", Vertices: []string{"ids", "lb"}},
		},
	}
	ch := New(cfg,
		VertexSpec{Name: "nat", Make: func() nf.NF { return nfnat.New() },
			Instances: 2, Backend: BackendCHC, Mode: store.ModeEOCNA},
		VertexSpec{Name: "ids", Make: func() nf.NF { return portscan.New() },
			Instances: 1, Backend: BackendCHC, Mode: store.ModeEOCNA},
		VertexSpec{Name: "lb", Make: func() nf.NF { return lb.New(8) },
			Instances: 2, Backend: BackendCHC, Mode: store.ModeEOCNA},
	)
	ch.Root.traceCommits = map[uint64][]store.Commit{}
	ch.Start()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	ch.Vertices[2].Seed(func(apply func(store.Request)) { lb.New(8).SeedServers(apply) })
	return ch
}

// forkFailover runs one paced mixed-class trace through the fork chain,
// crashes NAT instance victim mid-stream once it has processed traffic,
// fails it over with root replay, and checks what the chain must end with:
// every clock of every class deleted, an empty root log, and no more sink
// duplicates than replayed packets (async-delete mode admits replay-window
// duplicates, §5.4). A run that does not drain prints its stuck clocks.
func forkFailover(t *testing.T, cfg ChainConfig, victim int, flows int) {
	t.Helper()
	ch := forkChain(cfg)
	tr := trace.Generate(trace.Config{
		Seed: cfg.Seed, Flows: flows, PktsPerFlowMean: 14,
		PayloadMedian: 1000, Hosts: 32, Servers: 16, UDPFrac: 0.35,
	})
	tr.Pace(2_000_000_000)

	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		time.Sleep(time.Duration(tr.Duration()) / 2)
		// On a loaded machine the pacer may still be warming up at the
		// trace's wall-clock midpoint; wait until the victim has really
		// processed traffic so the crash is mid-stream.
		in := ch.Vertices[0].Instances[victim]
		for i := 0; i < 5000 && in.ProcessedCount() == 0; i++ {
			time.Sleep(time.Millisecond)
		}
		ch.Controller().Failover(in)
	}()

	ch.RunTrace(tr, 100*time.Millisecond)
	<-crashed
	drained := ch.AwaitDrained(30 * time.Second)
	ch.Stop()
	if !drained {
		logStuckClocks(t, ch)
		t.Fatalf("chain did not drain after failover: injected=%d deleted=%d log=%d replayed=%d",
			ch.Root.Injected, ch.Root.Deleted, ch.Root.LogSize(), ch.Root.Replayed)
	}
	if ch.Root.Injected == 0 {
		t.Fatal("no packets injected")
	}
	for ci, name := range ch.Classes() {
		if ch.Root.InjectedByClass[ci] != ch.Root.DeletedByClass[ci] {
			t.Fatalf("class %s conservation violated: injected=%d deleted=%d",
				name, ch.Root.InjectedByClass[ci], ch.Root.DeletedByClass[ci])
		}
	}
	if ch.Root.LogSize() != 0 {
		t.Fatalf("XOR/delete imbalance: %d clocks still logged", ch.Root.LogSize())
	}
	if ch.Sink.Duplicates > ch.Root.Replayed {
		t.Fatalf("%d sink duplicates exceed %d replayed packets", ch.Sink.Duplicates, ch.Root.Replayed)
	}
	if cfg.Substrate == SubstrateNet {
		if ns := ch.NetStats(); ns.RemoteMsgs == 0 {
			t.Fatalf("chain never crossed a socket: %+v", ns)
		}
	}
}

// TestForkFailover crashes a NAT instance of the tcp/udp fork mid-stream on
// each real-time substrate: on live, instance 0 among real goroutines; on
// net, the one instance homed on the second node, so the replay traffic,
// the state re-binding RPCs and the replacement's catch-up all cross the
// wire codec and real sockets.
func TestForkFailover(t *testing.T) {
	for _, row := range forkRows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg()
			cfg.Seed = 42
			forkFailover(t, cfg, row.victim, 160)
		})
	}
}

// TestLiveSoak repeats the live fork failover, a fresh chain and seed each
// round, for the soak budget (race detector on under make live-soak).
func TestLiveSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: runs without -short (make live-soak)")
	}
	budget := soakBudget(2 * time.Second)
	deadline := time.Now().Add(budget)
	round := 0
	for time.Now().Before(deadline) {
		round++
		cfg := LiveChainConfig()
		cfg.Seed = int64(100 + round)
		forkFailover(t, cfg, 0, 150)
	}
	t.Logf("soak: %d rounds in %v", round, budget)
}
