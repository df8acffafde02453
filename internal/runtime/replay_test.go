package runtime

import (
	"testing"
	"time"

	"chc/internal/nf"
	nfnat "chc/internal/nf/nat"
	"chc/internal/store"
	"chc/internal/vtime"
)

// TestDESReplayReadsFirstPass crashes a NAT instance at fixed instants of a
// DES run and checks that the failover replacement's replay drains the
// chain. Under EO with eight workers per instance, two FINs of one
// connection can run at once: both read the port mapping, one deletes it,
// and the crash comes before the other's delete. The replay runs them in
// clock order, so the second found the mapping gone, skipped its port push
// and delete, and signed a vector the first pass's commits never balance:
// 24 of the sweep's 399 instants (every odd one from 281) stayed logged.
// The store now serves a re-execution the first pass's read. Each instant
// takes about 0.1 s; -short runs every fourth.
func TestDESReplayReadsFirstPass(t *testing.T) {
	step := 2
	if testing.Short() {
		step = 8
	}
	for s := 281; s < 400; s += step {
		cfg := DefaultChainConfig()
		cfg.Seed = 7
		ch := New(cfg, VertexSpec{Name: "nat", Make: func() nf.NF { return nfnat.New() },
			Instances: 2, Backend: BackendCHC, Mode: store.ModeEO})
		ch.Root.traceCommits = map[uint64][]store.Commit{}
		ch.Start()
		ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
		tr := liveTrace(11, 80)
		// RunTrace offsets the trace by the time seeding took.
		at := ch.Sim().Now() + vtime.Time(int64(s)*int64(tr.Duration())/400)
		victim := ch.Vertices[0].Instances[s%2]
		ch.Sim().ScheduleAt(at, func() { ch.Controller().Failover(victim) })
		ch.RunTrace(tr, 3*time.Second)
		if ch.Root.LogSize() != 0 || ch.Root.Injected != ch.Root.Deleted || ch.Sink.Duplicates != 0 {
			logStuckClocks(t, ch)
			t.Fatalf("crash at %d/400 of the trace: log=%d injected=%d deleted=%d duplicates=%d",
				s, ch.Root.LogSize(), ch.Root.Injected, ch.Root.Deleted, ch.Sink.Duplicates)
		}
	}
}
