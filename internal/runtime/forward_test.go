package runtime

import (
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/store"
)

// TestRootTap runs a chain whose off-path tap is declared before any
// on-path vertex, so it hangs off the root: the root's forward queues a
// tap copy of every stamped packet beside the packet itself. On each
// substrate the tap must process every injected packet, the sink must
// receive each packet once, and the chain must drain. On live the root's
// bursts are up to 32 packets wide, so the copies leave in multi-packet
// RouteBursts.
func TestRootTap(t *testing.T) {
	rows := []struct {
		name string
		cfg  func() ChainConfig
	}{
		{"sim", testConfig},
		{"live", LiveChainConfig},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg()
			cfg.Seed = 7
			c := New(cfg,
				VertexSpec{Name: "tap", Make: func() nf.NF { return nf.Pass{} },
					Instances: 2, Backend: BackendTraditional, OffPath: true},
				natVertex(2, BackendCHC, store.ModeEOCNA))
			defer c.Stop()
			c.Start()
			seedNAT(c, c.Vertices[1])
			tr := smallTrace(60)
			c.RunTrace(tr, 20*time.Millisecond)
			if !c.AwaitDrained(10 * time.Second) {
				st, _ := c.QueryRootStats(time.Second)
				t.Fatalf("chain did not drain: injected=%d deleted=%d log=%d",
					st.Injected, st.Deleted, st.LogSize)
			}
			// Tap copies take no part in the delete protocol, so the root
			// can drain before the tap has caught up.
			tapped := func() (n uint64) {
				for _, in := range c.Vertices[0].Instances {
					n += in.ProcessedCount()
				}
				return n
			}
			for spent := time.Duration(0); tapped() < uint64(tr.Len()) && spent < 5*time.Second; spent += 10 * time.Millisecond {
				c.RunFor(10 * time.Millisecond)
			}
			c.Stop()
			if c.Root.Injected != uint64(tr.Len()) {
				t.Fatalf("root injected %d of %d packets", c.Root.Injected, tr.Len())
			}
			if n := tapped(); n != c.Root.Injected {
				t.Fatalf("tap processed %d of %d injected packets", n, c.Root.Injected)
			}
			if c.Sink.Received != c.Root.Injected || c.Sink.Duplicates != 0 {
				t.Fatalf("sink received %d (duplicates %d) of %d injected packets",
					c.Sink.Received, c.Sink.Duplicates, c.Root.Injected)
			}
		})
	}
}
