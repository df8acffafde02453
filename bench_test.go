// Benchmark harness: one testing.B benchmark per table/figure of the CHC
// paper's evaluation (§7), per the index in DESIGN.md §3. Each benchmark
// runs the corresponding experiment at a reduced scale and reports the
// headline quantity via b.ReportMetric so `go test -bench` output shows the
// reproduced shape directly. cmd/chcbench prints the full tables.
package chc_test

import (
	"strconv"
	"strings"
	"testing"

	"chc/internal/experiments"
)

// benchOpts is a scale small enough for b.N iterations.
func benchOpts() experiments.Opts { return experiments.Opts{Seed: 42, Flows: 80} }

// metric extracts the float from a formatted cell like "12.34µs".
func metric(tb *experiments.Table, rowPrefix []string, col int, unit string) float64 {
	for _, r := range tb.Rows {
		ok := len(r) > col
		for i := range rowPrefix {
			if !ok || r[i] != rowPrefix[i] {
				ok = false
				break
			}
		}
		if ok {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], unit), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// BenchmarkFig8 regenerates Figure 8 (per-NF processing time percentiles
// under the four state-management models).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig8(benchOpts())
		b.ReportMetric(metric(tb, []string{"nat", "T"}, 4, "µs"), "nat-T-p50-µs")
		b.ReportMetric(metric(tb, []string{"nat", "EO"}, 4, "µs"), "nat-EO-p50-µs")
		b.ReportMetric(metric(tb, []string{"nat", "EO+C+NA"}, 4, "µs"), "nat-NA-p50-µs")
	}
}

// BenchmarkChainLatency regenerates the §7.1 chain end-to-end overhead.
func BenchmarkChainLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.ChainLatency(benchOpts())
		b.ReportMetric(metric(tb, []string{"overhead"}, 1, "µs"), "overhead-µs")
	}
}

// BenchmarkOffload regenerates the §7.1 offloading-vs-locking comparison.
func BenchmarkOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Offload(benchOpts())
		b.ReportMetric(metric(tb, []string{"naive/chc"}, 1, "x"), "naive-vs-chc-x")
	}
}

// BenchmarkFig9 regenerates Figure 9 (cross-flow caching phases).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig9(benchOpts())
		b.ReportMetric(metric(tb, []string{"B: shared (blocking ops)"}, 1, "µs"), "shared-p90-µs")
	}
}

// BenchmarkFig10 regenerates Figure 10 (per-instance throughput).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig10(benchOpts())
		b.ReportMetric(metric(tb, []string{"nat"}, 1, "Gbps"), "nat-T-gbps")
		b.ReportMetric(metric(tb, []string{"nat"}, 2, "Gbps"), "nat-NA-gbps")
		b.ReportMetric(metric(tb, []string{"nat"}, 3, "Gbps"), "nat-EO-gbps")
	}
}

// BenchmarkDatastoreOps regenerates the §7.1 datastore throughput benchmark
// (real goroutines, real time).
func BenchmarkDatastoreOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.DatastoreOps(benchOpts())
		b.ReportMetric(metric(tb, []string{"increment"}, 1, "M"), "incr-Mops")
	}
}

// BenchmarkClockOverhead regenerates the §7.2 clock persistence sweep.
func BenchmarkClockOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.ClockOverhead(benchOpts())
		b.ReportMetric(metric(tb, []string{"n=1"}, 2, "µs"), "n1-overhead-µs")
		b.ReportMetric(metric(tb, []string{"n=100"}, 2, "µs"), "n100-overhead-µs")
	}
}

// BenchmarkPacketLogging regenerates the §7.2 logging comparison.
func BenchmarkPacketLogging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.PacketLogging(benchOpts())
		b.ReportMetric(metric(tb, []string{"local"}, 1, "µs"), "local-µs")
		b.ReportMetric(metric(tb, []string{"datastore"}, 1, "µs"), "store-µs")
	}
}

// BenchmarkDeleteRequest regenerates the §7.2 delete/XOR overhead rows.
func BenchmarkDeleteRequest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.DeleteRequest(benchOpts())
		b.ReportMetric(metric(tb, []string{"sync-delete"}, 1, "µs"), "sync-p50-µs")
	}
}

// BenchmarkFig11 regenerates Figure 11 (shared-state consistency latency).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig11(benchOpts())
		b.ReportMetric(metric(tb, []string{"chc"}, 2, "µs"), "chc-p50-µs")
		b.ReportMetric(metric(tb, []string{"opennf"}, 2, "µs"), "opennf-p50-µs")
	}
}

// BenchmarkFig12 regenerates Figure 12 (fault-tolerance latency CDF).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig12(benchOpts())
		b.ReportMetric(metric(tb, []string{"chc"}, 2, "µs"), "chc-p75-µs")
		b.ReportMetric(metric(tb, []string{"ftmb"}, 2, "µs"), "ftmb-p75-µs")
	}
}

// BenchmarkMove regenerates the §7.3 R2 move comparison.
func BenchmarkMove(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Move(benchOpts())
		b.ReportMetric(metric(tb, []string{"chc"}, 2, "µs"), "chc-handover-µs")
		b.ReportMetric(metric(tb, []string{"opennf"}, 4, "ms"), "opennf-total-ms")
	}
}

// BenchmarkTrojanOrdering regenerates the §7.3 R4 detection table.
func BenchmarkTrojanOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.TrojanOrdering(benchOpts())
		// Detected counts are "11/11"-style strings; report the CHC row's
		// numerator for W3.
		for _, r := range tb.Rows {
			if r[0] == "W3" {
				n, _ := strconv.Atoi(strings.Split(r[1], "/")[0])
				b.ReportMetric(float64(n), "chc-W3-detected")
			}
		}
	}
}

// BenchmarkTable5 regenerates Table 5 (duplicate suppression).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Table5(benchOpts())
		for _, r := range tb.Rows {
			if r[0] == "50%" && r[1] == "off" {
				n, _ := strconv.Atoi(r[2])
				b.ReportMetric(float64(n), "dup-pkts-50-off")
			}
		}
	}
}

// BenchmarkFig13 regenerates Figure 13 (failover latency timeline).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig13(benchOpts())
		b.ReportMetric(metric(tb, []string{"50%"}, 2, "ms"), "recovery-50-ms")
	}
}

// BenchmarkRootRecovery regenerates the §7.3 root-failover measurement.
func BenchmarkRootRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.RootRecovery(benchOpts())
		b.ReportMetric(metric(tb, []string{"recovery time"}, 1, "µs"), "recovery-µs")
	}
}

// BenchmarkFig14 regenerates Figure 14 (store recovery time).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig14(benchOpts())
		b.ReportMetric(metric(tb, []string{"10"}, 3, "ms"), "rec-10inst-150ms-ms")
	}
}

// BenchmarkRecovery regenerates the rto experiment: checkpointed store
// recovery stays flat as history grows, full-WAL replay does not.
func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Rto(benchOpts())
		b.ReportMetric(metric(tb, []string{"10x"}, 1, "ms"), "full-10x-ms")
		b.ReportMetric(metric(tb, []string{"10x"}, 3, "ms"), "ckpt-10x-ms")
	}
}

// BenchmarkScale regenerates the sharded-store / elastic scale-out grid.
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Scale(benchOpts())
		s1 := metric(tb, []string{"i=4 s=1"}, 1, "Gbps")
		s4 := metric(tb, []string{"i=4 s=4"}, 1, "Gbps")
		b.ReportMetric(s1, "i4s1-gbps")
		b.ReportMetric(s4, "i4s4-gbps")
		if s1 > 0 {
			b.ReportMetric(s4/s1, "shard-speedup-x")
		}
	}
}

// BenchmarkDAG regenerates the policy-DAG fork experiment (branch-parallel
// goodput and branch-local recovery).
func BenchmarkDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.DAG(benchOpts())
		lin := metric(tb, []string{"linear 1-vertex"}, 1, "Gbps")
		fork := metric(tb, []string{"fork 2-branch"}, 1, "Gbps")
		b.ReportMetric(lin, "linear-gbps")
		b.ReportMetric(fork, "fork-gbps")
		if lin > 0 {
			b.ReportMetric(fork/lin, "branch-speedup-x")
		}
	}
}

// BenchmarkAutoscale regenerates the metrics-driven autoscaling ramp:
// the DES segment's convergence goodput is the deterministic trend line
// (guarded by perf-guard); the live segment's ingest rate is
// machine-dependent.
func BenchmarkAutoscale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Autoscale(benchOpts())
		b.ReportMetric(metric(tb, []string{"des-ramp"}, 1, "Gbps"), "des-ramp-gbps")
		b.ReportMetric(metric(tb, []string{"live-ramp"}, 1, "pps"), "live-ramp-pps")
	}
}
