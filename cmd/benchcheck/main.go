// Command benchcheck compares two chcbench -json result files and fails
// on goodput regression. It is the CI perf gate: BENCH_baseline.json is
// checked into the repository, CI regenerates a fresh run per commit,
// and a headline experiment losing more than the allowed fraction of
// goodput fails the build.
//
// Cells expressed in Gbps (goodput, higher is better) and ms (recovery
// time, lower is better) are compared; the regression direction flips
// accordingly. The headline DES experiments are deterministic — same
// seed, same virtual time, same numbers on any machine — so the threshold
// only has to absorb intentional calibration changes, not host noise.
// Wall-clock experiments (dstore) are excluded by default for exactly that
// reason: the repository's wall-clock numbers are chcperf's (bench/), and
// the live hot path's allocation budget is TestLiveHotPathAllocs in
// internal/runtime.
//
// Usage:
//
//	benchcheck -baseline BENCH_baseline.json -fresh BENCH_fresh.json
//	benchcheck -baseline ... -fresh ... -ids fig8,fig10,scale,dag,autoscale -max-regress 0.25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result mirrors chcbench's jsonResult.
type result struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

func load(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]result, len(rs))
	for _, r := range rs {
		out[r.ID] = r
	}
	return out, nil
}

// gbpsCell parses "12.34Gbps" cells; ok is false for anything else.
func gbpsCell(s string) (float64, bool) {
	if !strings.HasSuffix(s, "Gbps") {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "Gbps"), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// msCell parses "1.234ms" duration cells (recovery times). Unlike goodput,
// durations regress UPWARD, so the comparison direction is inverted. Cells
// ending in Gbps also end in "s"; require the exact "ms" suffix with a
// parseable number before it.
func msCell(s string) (float64, bool) {
	if !strings.HasSuffix(s, "ms") || strings.HasSuffix(s, "Gbps") {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "checked-in baseline results")
	freshPath := flag.String("fresh", "BENCH_fresh.json", "freshly generated results")
	idsFlag := flag.String("ids", "fig8,fig10,scale,dag,autoscale,rto", "comma-separated headline experiment ids to guard")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated fractional regression")
	flag.Parse()

	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fatal(err)
	}

	failures := 0
	compared := 0
	for _, id := range strings.Split(*idsFlag, ",") {
		id = strings.TrimSpace(id)
		idFailures := failures
		b, ok := base[id]
		if !ok {
			fmt.Printf("FAIL %s: missing from baseline (regenerate BENCH_baseline.json)\n", id)
			failures++
			continue
		}
		f, ok := fresh[id]
		if !ok {
			fmt.Printf("FAIL %s: missing from fresh results (experiment removed?)\n", id)
			failures++
			continue
		}
		if len(f.Rows) < len(b.Rows) {
			fmt.Printf("FAIL %s: fresh run has %d rows, baseline %d\n", id, len(f.Rows), len(b.Rows))
			failures++
			continue
		}
		for ri, brow := range b.Rows {
			frow := f.Rows[ri]
			for ci, bcell := range brow {
				if bv, ok := gbpsCell(bcell); ok && bv > 0 {
					if ci >= len(frow) {
						fmt.Printf("FAIL %s row %d: fresh row too short\n", id, ri)
						failures++
						continue
					}
					fv, ok := gbpsCell(frow[ci])
					if !ok {
						fmt.Printf("FAIL %s row %d col %d: %q is no longer a Gbps cell\n", id, ri, ci, frow[ci])
						failures++
						continue
					}
					compared++
					if fv < bv*(1.0-*maxRegress) {
						fmt.Printf("FAIL %s [%s]: goodput %.2fGbps regressed >%.0f%% from baseline %.2fGbps\n",
							id, strings.Join(brow[:1], ""), fv, *maxRegress*100, bv)
						failures++
					}
					continue
				}
				if bv, ok := msCell(bcell); ok && bv > 0 {
					if ci >= len(frow) {
						fmt.Printf("FAIL %s row %d: fresh row too short\n", id, ri)
						failures++
						continue
					}
					fv, ok := msCell(frow[ci])
					if !ok {
						fmt.Printf("FAIL %s row %d col %d: %q is no longer an ms cell\n", id, ri, ci, frow[ci])
						failures++
						continue
					}
					compared++
					// Durations: higher is worse.
					if fv > bv*(1.0+*maxRegress) {
						fmt.Printf("FAIL %s [%s]: recovery time %.3fms regressed >%.0f%% from baseline %.3fms\n",
							id, strings.Join(brow[:1], ""), fv, *maxRegress*100, bv)
						failures++
					}
				}
			}
		}
		if failures == idFailures {
			fmt.Printf("ok   %s\n", id)
		}
	}
	fmt.Printf("benchcheck: %d cells compared, %d failures\n", compared, failures)
	if compared == 0 {
		fmt.Println("FAIL: no comparable cells found (format drift?)")
		failures++
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
