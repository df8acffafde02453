// chcd run: deploy a chain in this process, offer it one trace, report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"chc/internal/runtime"
	"chc/internal/trace"
)

// runCmd holds the run role's flags.
type runCmd struct {
	config, tracePath, jsonPath, admin, autoscale string
	offer                                         offer
	chain                                         chainTuning
	live                                          bool
	asLow, asHigh                                 float64
	asMin, asMax                                  int
}

func (c *runCmd) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("chcd run", flag.ExitOnError)
	fs.StringVar(&c.config, "config", "", "chain config JSON (required)")
	fs.StringVar(&c.tracePath, "trace", "", "trace file (from tracegen); empty generates one from the offer flags")
	c.offer.register(fs)
	c.chain.register(fs)
	fs.BoolVar(&c.live, "live", false, "run on real goroutines and wall-clock time (livenet)")
	fs.StringVar(&c.jsonPath, "json", "", "write a machine-readable run report to this path (- for stdout)")
	fs.StringVar(&c.admin, "admin", "", "serve the controller admin API (HTTP JSON) on this address while the run is active (live mode only)")
	fs.StringVar(&c.autoscale, "autoscale", "", "start the metrics-driven autoscaler on this vertex")
	fs.Float64Var(&c.asLow, "as-low", 3_000, "autoscaler low band edge (pkts/s per instance)")
	fs.Float64Var(&c.asHigh, "as-high", 20_000, "autoscaler high band edge (pkts/s per instance)")
	fs.IntVar(&c.asMin, "as-min", 1, "autoscaler minimum replicas")
	fs.IntVar(&c.asMax, "as-max", 4, "autoscaler maximum replicas")
	return fs
}

// loadTrace reads -trace, or generates the offered trace without one.
func (c *runCmd) loadTrace(seed int64) *trace.Trace {
	if c.tracePath == "" {
		return c.offer.trace(seed)
	}
	f, err := os.Open(c.tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func runMain(args []string) {
	c := &runCmd{}
	c.flags().Parse(args)

	cfg := loadConfig(c.config)
	ccfg := runtime.DefaultChainConfig()
	ccfg.DefaultServiceTime = 2 * time.Microsecond
	ccfg.DefaultThreads = 2
	if c.live {
		ccfg = runtime.LiveChainConfig()
	}
	ch := buildChain(cfg, c.chain, ccfg)
	ctl := ch.Controller()
	if c.autoscale != "" {
		interval := 50 * time.Millisecond
		if !c.live {
			interval = 2 * time.Millisecond // DES: virtual-time sampling
		}
		if _, err := ctl.StartAutoscaler(runtime.AutoscalerConfig{
			Vertex: c.autoscale, Min: c.asMin, Max: c.asMax,
			LowPPS: c.asLow, HighPPS: c.asHigh, Interval: interval,
		}); err != nil {
			fatal(err)
		}
	}
	var adminSrv *http.Server
	if c.admin != "" {
		if !c.live {
			fatal(errors.New("-admin requires -live (the DES has no real-time event loop to serve HTTP against)"))
		}
		adminSrv = startAdmin(c.admin, ch)
	}

	tr := c.loadTrace(ch.Config().Seed)

	mode := "sim"
	if c.live {
		mode = "live"
	}
	fmt.Printf("chain: %d vertices (%s), trace: %d packets (%v)\n",
		len(ch.Vertices), mode, tr.Len(), tr.Duration())
	if len(cfg.Paths) > 0 {
		for ci, name := range ch.Classes() {
			var hops []string
			for _, v := range ch.PathFor(uint8(ci)) {
				hops = append(hops, v.Spec.Name)
			}
			fmt.Printf("path %-6s root -> %s -> sink\n", name, strings.Join(hops, " -> "))
		}
	}
	elapsed := ch.RunTrace(tr, c.offer.Settle)
	if c.live {
		if !ch.AwaitDrained(drainBudget) {
			fmt.Fprintln(os.Stderr, "chcd: warning: chain did not fully drain")
		}
		if adminSrv != nil {
			adminSrv.Close() // the run is over; stop admin mutations before teardown
		}
		ch.Stop()
	}

	fmt.Printf("\nroot:  injected=%d deleted=%d dropped=%d log=%d\n",
		ch.Root.Injected, ch.Root.Deleted, ch.Root.Dropped, ch.Root.LogSize())
	for _, s := range ch.Stores {
		fmt.Printf("%-12s ops=%-8d async=%-6d keys=%d\n",
			s.Name, s.OpsServed, s.AsyncServed, s.Engine().Len())
	}
	for _, v := range ch.Vertices {
		for _, in := range v.Instances {
			fmt.Printf("%-12s processed=%-8d suppressed=%-6d bytes=%d\n",
				v.Spec.Name, in.Processed, in.Suppressed, in.BytesProcessed)
		}
		s := ch.Metrics.Get("proc." + v.Spec.Name)
		fmt.Printf("%-12s proc p50=%v p95=%v\n", v.Spec.Name, s.Percentile(50), s.Percentile(95))
	}
	fmt.Printf("sink:  received=%d duplicates=%d\n", ch.Sink.Received, ch.Sink.Duplicates)
	if len(cfg.Paths) > 0 {
		for ci, name := range ch.Classes() {
			fmt.Printf("class %-6s injected=%-8d deleted=%-8d sink=%d\n", name,
				ch.Root.InjectedByClass[ci], ch.Root.DeletedByClass[ci],
				ch.Sink.ReceivedByClass[uint8(ci)])
		}
	}
	e2e := ch.Metrics.Get("total.chain")
	fmt.Printf("chain: e2e p50=%v p95=%v\n", e2e.Percentile(50), e2e.Percentile(95))
	if n := e2e.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "chcd: warning: the latency series dropped %d samples past its cap; its percentiles describe the first %d packets only\n",
			n, e2e.N())
	}
	status := ctl.Status()
	report := makeReport(ch, status, mode, elapsed, tr.Len())
	for _, cs := range status.Checkpoints {
		fmt.Printf("ckpt:  %-8s taken=%d retained=%d torn=%d rejected=%d last=%.12s…\n",
			cs.Shard, cs.Taken, cs.Retained, cs.Torn, cs.Rejected, cs.LastID)
	}
	fmt.Printf("ctrl:  specs=%d actions=%d autoscaler evals=%d actions=%d\n",
		status.SpecsApplied, status.TotalActions, status.AutoscalerEvals, status.AutoscalerActions)
	if status.AutoscalerLast != "" {
		fmt.Printf("ctrl:  last autoscaler decision: %s\n", status.AutoscalerLast)
	}
	if n := ch.Metrics.AlertCount("scanner-detected"); n > 0 {
		fmt.Printf("alerts: %d scanners detected\n", n)
	}
	if n := ch.Metrics.AlertCount("trojan-detected"); n > 0 {
		fmt.Printf("alerts: %d trojans detected\n", n)
	}

	fmt.Printf("rate:  %.0f pkts/s ingest, %.2f Gbps goodput over %.2fs (%s clock)\n",
		report.PktsPerSec, report.GoodputGbps, report.ElapsedSec, mode)
	if c.live {
		fmt.Printf("burst: root bursts=%d arena reuse=%d store burst rpcs=%d\n",
			ch.Root.Bursts, ch.Metrics.Counter("arena.reuse"), ch.Metrics.Counter("client.burst_rpcs"))
	}

	if c.jsonPath != "" {
		writeReport(c.jsonPath, report)
	}
}
