package runtime

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// liveNATChain deploys a single-NF live chain (real goroutines).
func liveNATChain(t *testing.T, instances int) *Chain {
	t.Helper()
	cfg := LiveChainConfig()
	cfg.Seed = 7
	ch := New(cfg, VertexSpec{
		Name:      "nat",
		Make:      func() nf.NF { return nfnat.New() },
		Instances: instances,
		Backend:   BackendCHC,
		Mode:      store.ModeEOCNA,
	})
	ch.Start()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	return ch
}

func liveTrace(seed int64, flows int) *trace.Trace {
	tr := trace.Generate(trace.Config{
		Seed: seed, Flows: flows, PktsPerFlowMean: 12,
		PayloadMedian: 600, Hosts: 16, Servers: 8,
	})
	tr.Pace(2_000_000_000)
	return tr
}

// TestLiveLinearConservation runs real traffic through a live chain and
// checks the chain-wide invariants the DES pins deterministically:
// conservation (every injected clock completes the Fig 6 delete
// protocol), an empty in-flight log (all XOR vectors balanced), and no
// duplicate deliveries at the sink.
func TestLiveLinearConservation(t *testing.T) {
	ch := liveNATChain(t, 2)
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
}

// failoverRounds are the back-to-back failover counts the live and net
// failover tests run with: one, and a chain of eight where each
// replacement is itself failed over at once (its slot's redirects chain
// while traffic keeps routing through them).
var failoverRounds = []int{1, 8}

// TestLiveFailoverReplay crashes an instance mid-stream under live
// concurrency, fails over with root replay — rounds times in a row on the
// same routing slot — and checks that the chain still converges to a
// balanced state (the §5.4 failover story on real goroutines).
func TestLiveFailoverReplay(t *testing.T) {
	for _, rounds := range failoverRounds {
		t.Run(fmt.Sprintf("failovers=%d", rounds), func(t *testing.T) { liveFailoverReplay(t, rounds) })
	}
}

func liveFailoverReplay(t *testing.T, rounds int) {
	ch := liveNATChain(t, 2)
	ch.Root.traceCommits = map[uint64][]store.Commit{}
	tr := liveTrace(11, 80)

	// Crash one instance roughly mid-trace, from a concurrent goroutine —
	// exactly the interleaving the DES cannot produce.
	crashed := make(chan struct{})
	go func() {
		time.Sleep(time.Duration(tr.Duration()) / 2)
		victim := ch.Vertices[0].Instances[0]
		for i := 0; i < rounds; i++ {
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
		t.Fatalf("conservation violated after failover: injected=%d deleted=%d",
			ch.Root.Injected, ch.Root.Deleted)
	}
	if ch.Sink.Duplicates != 0 {
		t.Fatalf("sink saw %d duplicates (suppression failed under failover)", ch.Sink.Duplicates)
	}
}

// logStuckClocks prints, for the first 64 clocks the stopped chain's root
// still logs, the delete verdict it is waiting on and the commit signals
// it got (recorded when Root.traceCommits was set before the run).
func logStuckClocks(t *testing.T, ch *Chain) {
	t.Helper()
	for _, s := range ch.Root.StuckClocks(64) {
		t.Logf("stuck %v", s)
	}
}

// runInDrainedLaps offers tr in laps of 4096 packets and lets the chain
// drain after each; it returns false when a lap has not drained in 30 s.
// Live mailboxes are unbounded, so one open loop over a long trace builds,
// on a busy box, a backlog the root's sweep then retransmits: a test
// offered that way measures the sweep.
func runInDrainedLaps(c *Chain, tr *trace.Trace) bool {
	const lap = 4096
	for lo := 0; lo < tr.Len(); lo += lap {
		part := &trace.Trace{Events: slices.Clone(tr.Events[lo:min(lo+lap, tr.Len())])}
		part.Pace(2_000_000_000)
		c.RunTrace(part, 0)
		if !c.AwaitDrained(30 * time.Second) {
			return false
		}
	}
	return true
}

// threeNFInvariants starts the nat→ids→lb chain under cfg, runs flows flows
// through it in drained laps and checks what every fault-free run must end
// with: each injected clock deleted, the root log empty, every packet at the
// sink once. A run that does not drain prints its stuck clocks. It returns
// how many messages the root received per packet.
func threeNFInvariants(t *testing.T, cfg ChainConfig, mode store.Mode, flows int) (rootMsgsPerPkt float64) {
	t.Helper()
	ch := New(cfg, threeNFSpecs(mode)...)
	ch.Root.traceCommits = map[uint64][]store.Commit{}
	ch.Start()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	ch.Vertices[2].Seed(func(apply func(store.Request)) { lb.New(8).SeedServers(apply) })
	tr := trace.Generate(trace.Config{Seed: cfg.Seed, Flows: flows, PktsPerFlowMean: 14,
		PayloadMedian: 1000, Hosts: 32, Servers: 16})
	drained := runInDrainedLaps(ch, tr)
	ch.Stop()
	if !drained {
		logStuckClocks(t, ch)
	}
	if ch.Root.LogSize() != 0 || ch.Root.Injected != ch.Root.Deleted || int(ch.Root.Injected) != tr.Len() {
		t.Fatalf("injected=%d of %d deleted=%d log=%d, want every clock deleted and the log empty",
			ch.Root.Injected, tr.Len(), ch.Root.Deleted, ch.Root.LogSize())
	}
	if ch.Sink.Duplicates != 0 || int(ch.Sink.Received) != tr.Len() {
		t.Fatalf("sink received %d of %d packets, %d of them twice", ch.Sink.Received, tr.Len(), ch.Sink.Duplicates)
	}
	return float64(rootInbound(ch)) / float64(tr.Len())
}

// rootInbound sums the messages sent to the root over every link into it.
func rootInbound(ch *Chain) uint64 {
	from := []string{"driver", "framework", "stats-query", SinkEndpoint}
	for _, s := range ch.Stores {
		from = append(from, s.Name)
	}
	for _, v := range ch.Vertices {
		for _, in := range v.Instances {
			from = append(from, in.Endpoint)
		}
	}
	var n uint64
	for _, ep := range from {
		sent, _, _ := ch.Net().LinkStats(ep, ch.Root.Endpoint)
		n += sent
	}
	return n
}

// TestLiveTwoShardDrains: the benchmark's state_na chain on two store
// shards deletes every packet it injects. Until the Fig 6 terms were mixed
// (fig6Term) about one packet in 3000 stayed logged: a SYN's vector
// balanced with three commits outstanding, its prune overtook a cached
// per-flow Set, and the flow's later Delete found nothing to commit.
func TestLiveTwoShardDrains(t *testing.T) {
	cfg := LiveChainConfig()
	cfg.Seed = 1
	cfg.StoreShards = 2
	flows := 2100 // about 40 k packets
	if testing.Short() {
		flows = 300
	}
	threeNFInvariants(t, cfg, store.ModeEOCNA, flows)
}

// TestLiveInvariantTable runs the same invariants over every combination
// of the knobs a shard-keyed or burst-keyed mechanism could depend on, and
// once across sockets. The burst width is the substrate's: 32 on live and
// 1 on the DES, which runs the same burst path with bursts of one. So the
// burst=1 rows run the chain on the DES, at its default eight workers per
// instance. -short (the race detector slows live tenfold and more) runs the
// live shards x mode diagonal on a quarter of the traffic, and leaves the
// deterministic DES rows and the sockets to the full run and the net
// failover tests.
//
// The EO DES rows run seeds 11 to 15 each. With eight workers, two FIN/RST
// packets of one connection run at once under EO, and the second one's
// per-flow Delete finds the key gone. The NF signs that Delete into its
// packet's XOR vector on issue, so the store has to commit it although it
// changed nothing, or the clock stays logged forever (eight to sixteen
// clocks per seed in the first lap before the store committed every
// non-conflicted mutating op).
//
// The EO+C+NA burst-32 rows also bound the root's inbound messages per
// packet, so a change cannot quietly undo the per-batch control signals:
// one packet, about 0.04 delete and 0.1 commit messages on one shard (the
// parent of that change: one packet, one delete and 3.5 commits). With
// more shards a capped merged increment often leaves alone in its shard's
// message: at most about 2.9 there (parent 5.5). EO and EO+C commit
// blocking calls one op at a time, so no batch exists to answer at once.
func TestLiveInvariantTable(t *testing.T) {
	flows := 600 // about 11 k packets
	if testing.Short() {
		flows = 150
	}
	modes := []struct {
		name string
		mode store.Mode
	}{{"EO", store.ModeEO}, {"EOC", store.ModeEOC}, {"EOCNA", store.ModeEOCNA}}
	for si, shards := range []int{1, 2, 4} {
		for mi, m := range modes {
			for _, burst := range []int{1, liveBurstSize} {
				if testing.Short() && (si != mi || burst == 1) {
					continue
				}
				t.Run(fmt.Sprintf("shards=%d/%s/burst=%d", shards, m.name, burst), func(t *testing.T) {
					cfg := LiveChainConfig()
					if burst == 1 {
						cfg = DefaultChainConfig()
					}
					cfg.StoreShards = shards
					if burst == 1 && m.mode == store.ModeEO {
						for seed := int64(11); seed <= 15; seed++ {
							t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
								cfg.Seed = seed
								threeNFInvariants(t, cfg, m.mode, flows)
							})
						}
						return
					}
					cfg.Seed = int64(11 + si)
					perPkt := threeNFInvariants(t, cfg, m.mode, flows)
					bound := 2.0
					if shards > 1 {
						bound = 4
					}
					if m.mode == store.ModeEOCNA && burst > 1 && perPkt > bound {
						t.Fatalf("the root received %.2f messages per packet, want at most %.0f", perPkt, bound)
					}
				})
			}
		}
	}
	if testing.Short() {
		return
	}
	t.Run("net/shards=2/EOCNA/burst=32", func(t *testing.T) {
		cfg := NetChainConfig([]transport.NodeSpec{
			{Name: "a", Endpoints: []string{"root0", "sink", "store0", "driver", "framework", "stats-query", "v1"}},
			{Name: "b", Endpoints: []string{"store1", "v2", "v3"}},
		}, "")
		cfg.Seed = 17
		cfg.StoreShards = 2
		threeNFInvariants(t, cfg, store.ModeEOCNA, flows)
	})
}
