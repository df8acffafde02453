package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeOptions shrinks a run to 300 ms phases over 200 flows at a rate a
// race-instrumented chain sustains, so the whole file runs in seconds.
func smokeOptions(traced bool, spans string) options {
	return options{
		seed: 1, seconds: runSeconds, trace: traced, window: defaultWindow, shards: 1,
		dur: 300 * time.Millisecond, rate: 2000, flows: 200, spans: spans,
	}
}

// TestSmoke runs every workload once untraced and checks that each
// end-to-end metric comes out with its unit, that nothing failed, and
// that the runs survive a round trip through -out and -compare.
func TestSmoke(t *testing.T) {
	results := make([]*result, len(workloads))
	t.Run("workloads", func(t *testing.T) {
		for i := range workloads {
			w := &workloads[i]
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				res := runWorkload(w, smokeOptions(false, ""), &out)
				results[i] = res
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d problems=%v\n%s",
						res.Correct, res.Failed, res.Attempted, res.Problems, out.String())
				}
				checkMetrics(t, res, endToEnd)
				if !strings.Contains(out.String(), "loopback") && !strings.Contains(out.String(), "no link") {
					t.Errorf("output does not say where the traffic flowed:\n%s", out.String())
				}
			})
		}
	})

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, path := range []string{a, b} {
		if err := appendRuns(path, results); err != nil {
			t.Fatal(err)
		}
	}
	var out, errs bytes.Buffer
	if code := compareSets(a, b, &out, &errs); code != 0 {
		t.Fatalf("-compare of a set with itself: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if got, want := strings.Count(out.String(), "within"), len(workloads)*len(endToEnd); got != want {
		t.Errorf("-compare printed %d within rows, want %d:\n%s", got, want, out.String())
	}

	// A set that is worse beyond a bound must fail the comparison.
	worse := *results[0]
	worse.Metrics = map[string]value{}
	for k, v := range results[0].Metrics {
		worse.Metrics[k] = v
	}
	pps := worse.Metrics["chain_pps"]
	pps.Value /= 2
	worse.Metrics["chain_pps"] = pps
	out.Reset()
	if code := compareRuns(results[:1], []*result{&worse}, &out); code == 0 || !strings.Contains(out.String(), "outside") {
		t.Errorf("-compare accepted half the chain_pps:\n%s", out.String())
	}
}

// TestTraced runs the traced pass on the workload that touches every
// layer and checks every per-layer metric, the span file and that the
// pass also measured the end-to-end metrics its budget row needs.
func TestTraced(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	var out bytes.Buffer
	res := runWorkload(workloadByName("net_fork"), smokeOptions(true, spans), &out)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d problems=%v\n%s", res.Correct, res.Failed, res.Problems, out.String())
	}
	checkMetrics(t, res, perLayer)

	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d %s ends before it starts", s.ID, s.Name)
		}
		seen[s.Name] = true
	}
	want := []string{"workload", "setup", "trace.generate", "chain.new", "chain.start", "chain.seed",
		"open_loop", "closed_loop", "inject", "root_echo", "drain", "probes"}
	for _, d := range perLayer {
		if strings.HasPrefix(d.why, "probe: ") {
			// Every probed metric has a span family named after its layer.
			layer := d.name[:strings.Index(d.name, ".")]
			found := false
			for name := range seen {
				found = found || strings.HasPrefix(name, "probe."+layer+".")
			}
			if !found {
				t.Errorf("no probe.%s.* span for %s", layer, d.name)
			}
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("no %q span in %s", name, spans)
		}
	}
}

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if v.Unit != d.unit || d.unit == "" {
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		}
	}
}

// TestManifest pins BENCHMARK.json to the tables in metrics.go and
// workloads.go, and the tables to the limits the file format sets.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if names[d.name] || len(d.name) > 64 || len(d.unit) > 16 || d.why == "" {
			t.Errorf("metric %q: duplicate, too long or unexplained", d.name)
		}
		names[d.name] = true
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// TestQuartiles pins the spread to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
