package experiments

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"chc/internal/nf"
	nfnat "chc/internal/nf/nat"
	nftrojan "chc/internal/nf/trojan"
	"chc/internal/runtime"
	"chc/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite parity golden digests")

// goldenScenarios are deterministic deployments whose full output digest is
// pinned in testdata/. The four linear_* ones were captured on the
// linear-chain runtime BEFORE the topology layer was generalized to a policy
// DAG, so they prove the acceptance criterion that a nil branch spec is
// byte-identical to the pre-refactor linear wiring (the same pinning
// approach as TestHandleRawParity, but across refactors rather than across
// APIs). tap_syncdelete_move was captured while instances still had a
// per-packet output path beside the burst path; it pins when outputs leave
// around a synchronous delete's wait and a handover release, the flush
// points the single path had to add (see tapSyncDeleteMove).
func goldenScenarios() map[string]func() string {
	o := Opts{Seed: 42, Flows: 60}
	run := func(mode store.Mode, instances int, shards int) string {
		ch := parityChainN(o.Seed, mode, false, instances, shards)
		tr := background(o, 1394)
		tr.Pace(2_000_000_000)
		ch.RunTrace(tr, 300*time.Millisecond)
		return chainDigest(ch)
	}
	return map[string]func() string{
		"linear_eo":           func() string { return run(store.ModeEO, 1, 1) },
		"linear_eoc":          func() string { return run(store.ModeEOC, 1, 1) },
		"linear_eocna":        func() string { return run(store.ModeEOCNA, 1, 1) },
		"linear_multi_i2s2":   func() string { return run(store.ModeEOCNA, 2, 2) },
		"tap_syncdelete_move": func() string { return tapSyncDeleteMove(o) },
	}
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
			got := gen()
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
