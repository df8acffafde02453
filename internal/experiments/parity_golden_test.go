package experiments

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"chc/internal/nf"
	nflb "chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	nfps "chc/internal/nf/portscan"
	nftrojan "chc/internal/nf/trojan"
	"chc/internal/runtime"
	"chc/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite parity golden digests")

// goldenScenarios are deterministic deployments whose full output digest is
// pinned in testdata/. The four linear_* ones were captured on the
// linear-chain runtime BEFORE the topology layer was generalized to a policy
// DAG, so they prove the acceptance criterion that a nil branch spec is
// byte-identical to the pre-refactor linear wiring. They are also the one
// reference for the four NFs' behaviour on the typed-handle API.
// tap_syncdelete_move was captured while instances still had a per-packet
// output path beside the burst path; it pins when outputs leave around a
// synchronous delete's wait and a handover release, the flush points the
// single path had to add (see tapSyncDeleteMove).
func goldenScenarios() map[string]func(t *testing.T) string {
	o := Opts{Seed: 42, Flows: 60}
	run := func(mode store.Mode, instances int, shards int) func(t *testing.T) string {
		return func(t *testing.T) string {
			ch := goldenChain(o.Seed, mode, instances, shards)
			tr := background(o, 1394)
			tr.Pace(2_000_000_000)
			ch.RunTrace(tr, 300*time.Millisecond)
			// A +NA golden proves nothing about coalescing unless the
			// coalescing path fired on the way to it.
			if mode.NoAckWait && ch.Metrics.Counter("client.coalesced_ops") == 0 {
				t.Error("coalescing path never fired under +NA")
			}
			return chainDigest(ch)
		}
	}
	return map[string]func(t *testing.T) string{
		"linear_eo":           run(store.ModeEO, 1, 1),
		"linear_eoc":          run(store.ModeEOC, 1, 1),
		"linear_eocna":        run(store.ModeEOCNA, 1, 1),
		"linear_multi_i2s2":   run(store.ModeEOCNA, 2, 2),
		"tap_syncdelete_move": func(*testing.T) string { return tapSyncDeleteMove(o) },
	}
}

// goldenChain builds the §7.1 chain (NAT -> Trojan off-path -> portscan ->
// LB) with per-vertex instance and store-shard counts, and seeds the NAT's
// port pool and the LB's server list.
func goldenChain(seed int64, mode store.Mode, instances, shards int) *runtime.Chain {
	cfg := latencyConfig(seed)
	cfg.StoreShards = shards
	ch := runtime.New(cfg,
		runtime.VertexSpec{Name: "nat", Instances: instances, Make: func() nf.NF { return nfnat.New() },
			Backend: runtime.BackendCHC, Mode: mode},
		runtime.VertexSpec{Name: "trojan", Make: func() nf.NF { return nftrojan.New() },
			Backend: runtime.BackendCHC, Mode: mode, OffPath: true},
		runtime.VertexSpec{Name: "portscan", Make: func() nf.NF { return nfps.New() },
			Backend: runtime.BackendCHC, Mode: mode},
		runtime.VertexSpec{Name: "lb", Make: func() nf.NF { return nflb.New(8) },
			Backend: runtime.BackendCHC, Mode: mode},
	)
	ch.Start()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	ch.Vertices[3].Seed(func(apply func(store.Request)) { nflb.New(8).SeedServers(apply) })
	return ch
}

// chainDigest renders everything an experiment reports — root/sink
// accounting, alerts, per-instance work, latency percentiles, and the full
// final store state — as one comparable string.
func chainDigest(ch *runtime.Chain) string {
	var b strings.Builder
	fmt.Fprintf(&b, "root injected=%d deleted=%d dropped=%d inflight=%d\n",
		ch.Root.Injected, ch.Root.Deleted, ch.Root.Dropped, ch.Root.LogSize())
	fmt.Fprintf(&b, "sink received=%d duplicates=%d\n", ch.Sink.Received, ch.Sink.Duplicates)
	for _, a := range ch.Metrics.Alerts {
		fmt.Fprintf(&b, "alert %s/%s host=%08x clock=%d\n", a.NF, a.Kind, a.Host, a.Clock)
	}
	for _, v := range ch.Vertices {
		for _, in := range v.Instances {
			fmt.Fprintf(&b, "inst %s processed=%d bytes=%d suppressed=%d\n",
				in.Endpoint, in.Processed, in.BytesProcessed, in.Suppressed)
		}
	}
	for _, name := range []string{"proc.nat", "proc.trojan", "proc.portscan", "proc.lb", "total.chain"} {
		s := ch.Metrics.Get(name)
		fmt.Fprintf(&b, "series %s n=%d p50=%v p95=%v\n", name, s.N(), s.Percentile(50), s.Percentile(95))
	}
	snap := ch.StoreSnapshot()
	keys := make([]store.Key, 0, len(snap.Entries))
	for k := range snap.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, k := range keys {
		fmt.Fprintf(&b, "kv %s=%s\n", k, snap.Entries[k])
	}
	return b.String()
}

// firstDiff locates the first differing line of a digest and its golden.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "<eof>", "<eof>"
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, av, bv)
		}
	}
	return "identical"
}

// tapSyncDeleteMove runs a NAT tail with the Trojan detector as its
// off-path tap, two NAT instances of eight workers each, synchronous
// deletes, and a Fig 4 move of every other flow to the second instance in
// the middle of the trace. A tail with a tap emits [tap copy, delete, sink]
// per packet, and the delete wait and the handover release are blocking
// points a worker reaches with outputs in hand. Beside the chain digest it
// pins every packet's completion instant and latency at the NAT, the tap
// and the sink, so an output sent at another instant shows.
func tapSyncDeleteMove(o Opts) string {
	cfg := runtime.DefaultChainConfig()
	cfg.Seed = o.Seed
	cfg.SyncDelete = true
	ch := runtime.New(cfg,
		runtime.VertexSpec{Name: "nat", Instances: 2, Make: func() nf.NF { return nfnat.New() },
			Backend: runtime.BackendCHC, Mode: store.ModeEOCNA},
		runtime.VertexSpec{Name: "trojan", Make: func() nf.NF { return nftrojan.New() },
			Backend: runtime.BackendCHC, Mode: store.ModeEOCNA, OffPath: true},
	)
	ch.Start()
	nat := ch.Vertices[0]
	nat.Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	tr := background(o, 1394)
	tr.Pace(2_000_000_000)
	var flows []uint64
	for _, e := range tr.Events {
		flows = append(flows, e.Pkt.Key().Canonical().Hash())
	}
	slices.Sort(flows)
	flows = slices.Compact(flows)
	var moved []uint64
	for i := 0; i < len(flows); i += 2 {
		moved = append(moved, flows[i])
	}
	ch.Sim().Schedule(time.Duration(tr.Duration())/2, func() {
		ch.Controller().MoveFlows(nat, moved, nat.Instances[1])
	})
	ch.RunTrace(tr, 300*time.Millisecond)
	d := chainDigest(ch)
	for _, name := range []string{"handover.acquire", "total.nat", "total.trojan", "total.chain"} {
		s := ch.Metrics.Get(name)
		h := fnv.New64a()
		fmt.Fprint(h, s.Values(), s.Times())
		d += fmt.Sprintf("series %s n=%d p50=%v p95=%v fnv=%016x\n",
			name, s.N(), s.Percentile(50), s.Percentile(95), h.Sum64())
	}
	return d
}

// TestLinearGoldenParity pins the linear chains' complete observable output
// (root/sink accounting, alerts, per-instance work, latency percentiles and
// the final store state) against digests captured before the refactors
// goldenScenarios names. Nothing may change — not a byte.
func TestLinearGoldenParity(t *testing.T) {
	for name, gen := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".golden")
			got := gen(t)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden on the PRE-refactor tree): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output diverged from pre-refactor linear chain at %s", firstDiff(got, string(want)))
			}
		})
	}
}
