package runtime

import (
	"fmt"
	"testing"
	"time"

	"chc/internal/nf"
	nfnat "chc/internal/nf/nat"
	"chc/internal/store"
	"chc/internal/trace"
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
	ch.Root.traceCommits = map[uint64][]store.CommitMsg{}
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
		ch.Root.log.Each(func(clk uint64, ent *rootLogEntry) {
			t.Logf("stuck clock=%d gotDelete=%v finalVec=%08x commitXor=%08x proto=%d flags=%02x commits=%v",
				clk, ent.gotDelete, ent.finalVec, ent.commitXor, ent.pkt.Proto, ent.pkt.TCPFlags, ch.Root.traceCommits[clk])
		})
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
