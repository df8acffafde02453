// Command chcd deploys a CHC chain described by a JSON config, runs a trace
// through it (from a file or generated), and reports chain statistics.
//
// Example config:
//
//	{
//	  "vertices": [
//	    {"name": "nat", "nf": "nat", "instances": 2, "backend": "chc", "mode": "eocna"},
//	    {"name": "ids", "nf": "portscan", "backend": "chc", "mode": "eocna"},
//	    {"name": "dpi", "nf": "trojan", "backend": "chc", "mode": "eocna", "offpath": true}
//	  ]
//	}
//
// Non-linear deployments add a branch spec: one ordered vertex path per
// traffic class ("tcp" / "udp" / "other", classified by IP protocol at the
// root). Paths may share vertices (fork/rejoin); omitting "paths" keeps
// the linear declaration order.
//
//	{
//	  "vertices": [
//	    {"name": "nat", "nf": "nat"},
//	    {"name": "ids", "nf": "portscan"},
//	    {"name": "lb", "nf": "lb"}
//	  ],
//	  "paths": [
//	    {"class": "tcp", "vertices": ["nat", "lb"]},
//	    {"class": "udp", "vertices": ["ids", "lb"]}
//	  ]
//	}
//
// Usage:
//
//	chcd -config chain.json -trace trace.chct
//	chcd -config chain.json -flows 500 -gbps 2
//	chcd -config chain.json -shards 4          # 4-shard datastore tier
//	chcd -config dag.json -udp-frac 0.4        # mixed-class traffic for a fork
//	chcd -config dag.json -live -json out.json # real goroutines + wall clock
//
// Live mode (-live) runs the same chain on internal/livenet: real
// goroutines, channels and wall-clock time. The run reports achieved
// packet rate, goodput and end-to-end latency percentiles; -json writes
// them machine-readably. The repository's rate gate is chcperf's fwd_t
// workload (bench/), not this report.
//
// Reconfiguration goes through the chain's declarative Controller. In
// live mode -admin ADDR serves it as an HTTP JSON API while the run is
// active:
//
//	GET  /spec            observed DeploymentSpec
//	GET  /status          controller status: spec, reconcile log, autoscaler counters
//	POST /spec            apply a DeploymentSpec; responds with the emitted actions
//	POST /drain/{vertex}  take one replica of the vertex out of service
//
// -autoscale VERTEX starts the metrics-driven autoscaling policy on that
// vertex (band tuned by -as-low/-as-high pps, bounds by -as-min/-as-max),
// and the -json report's "controller" block records whether it ran —
// the live-soak CI gate asserts autoscaler_evals > 0.
//
// Multi-process deployments split one chain across OS processes (real TCP
// via internal/netnet; DESIGN.md §12). The config file gains a "nodes"
// section placing endpoints on named nodes:
//
//	{
//	  "vertices": [{"name": "nat", "nf": "nat", "instances": 2}],
//	  "nodes": [
//	    {"name": "w1", "addr": "127.0.0.1:7101", "admin": "127.0.0.1:8101",
//	     "endpoints": ["root0", "sink", "store0", "driver", "framework", "v1"]},
//	    {"name": "w2", "addr": "127.0.0.1:7102", "admin": "127.0.0.1:8102",
//	     "endpoints": ["v1.i2"]}
//	  ]
//	}
//
// Then each process runs one node, and a coordinator drives the run:
//
//	chcd worker -config chain.json -node w1
//	chcd worker -config chain.json -node w2
//	chcd coordinator -config chain.json -flows 300 -json report.json
//
// Every worker builds the identical chain (same IDs, partition map and
// topology) but spawns only the components homed on its node; cross-node
// packets and store RPCs ride TCP through the wire codec. Workers serve
// the admin API on their node's "admin" address, extended with GET
// /health, POST /run (root-owner node only: pace a trace through the
// chain and return the run report) and POST /failover (replace a crashed
// instance, optionally re-homing the replacement). The coordinator
// health-checks every worker, broadcasts spec changes, starts the run,
// and — when a worker dies mid-run (e.g. SIGKILL) — broadcasts failover
// verbs for the dead node's instances to the survivors, exercising the
// §5.4 story across real process boundaries.
//
// The first positional argument selects the mode: "run" (the single
// process behavior above), "worker", or "coordinator". A first argument
// beginning with '-' dispatches to "run" for compatibility with existing
// flat-flag invocations.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"chc/internal/nf"
	nflb "chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	nfps "chc/internal/nf/portscan"
	nftrojan "chc/internal/nf/trojan"
	"chc/internal/packet"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// vertexJSON is one chain vertex in the config file.
type vertexJSON struct {
	Name      string `json:"name"`
	NF        string `json:"nf"` // nat | portscan | trojan | lb | pass
	Instances int    `json:"instances"`
	Backend   string `json:"backend"` // chc | traditional | locking
	Mode      string `json:"mode"`    // eo | eoc | eocna
	OffPath   bool   `json:"offpath"`
	Backends  int    `json:"backends"` // for lb
}

// pathJSON is one traffic class's branch through the policy DAG.
type pathJSON struct {
	Class    string   `json:"class"` // tcp | udp | other
	Vertices []string `json:"vertices"`
}

// nodeJSON is one node of a multi-process deployment: a netnet dial
// address, the admin API address its worker serves, and the endpoints it
// hosts (prefix matching applies, so "v1" homes every v1 instance not
// claimed elsewhere — including failover replacements minted later).
type nodeJSON struct {
	Name      string   `json:"name"`
	Addr      string   `json:"addr"`
	Admin     string   `json:"admin"`
	Endpoints []string `json:"endpoints"`
}

type configJSON struct {
	Vertices []vertexJSON `json:"vertices"`
	Seed     int64        `json:"seed"`
	// Shards sizes the datastore tier (consistent-hash key partitioning);
	// 0 or 1 deploys the single store server.
	Shards int `json:"shards"`
	// Paths, when present, generalize the chain into a policy DAG: one
	// ordered vertex path per traffic class, with the root classifying
	// packets by IP protocol. Empty keeps the linear declaration order.
	Paths []pathJSON `json:"paths"`
	// Nodes, when present, declare the multi-process deployment's nodes
	// (chcd worker / coordinator modes). Ignored by plain "chcd run".
	Nodes []nodeJSON `json:"nodes"`
}

// nodeSpecs converts the config's node section to transport placement.
func (c configJSON) nodeSpecs() []transport.NodeSpec {
	var out []transport.NodeSpec
	for _, n := range c.Nodes {
		out = append(out, transport.NodeSpec{Name: n.Name, Addr: n.Addr, Endpoints: n.Endpoints})
	}
	return out
}

// adminOf returns the admin address of the named node.
func (c configJSON) adminOf(node string) string {
	for _, n := range c.Nodes {
		if n.Name == node {
			return n.Admin
		}
	}
	return ""
}

func loadConfig(path string) configJSON {
	if path == "" {
		fmt.Fprintln(os.Stderr, "chcd: -config is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var cfg configJSON
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fatal(fmt.Errorf("parse config: %w", err))
	}
	if len(cfg.Vertices) == 0 {
		fatal(fmt.Errorf("config has no vertices"))
	}
	return cfg
}

// passNF forwards packets unchanged.
type passNF struct{}

func (passNF) Name() string           { return "pass" }
func (passNF) Decls() []store.ObjDecl { return nil }
func (passNF) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	return ctx.Emit(pkt)
}

func makeNF(v vertexJSON) (func() nf.NF, func(*runtime.Vertex), error) {
	noSeed := func(*runtime.Vertex) {}
	switch v.NF {
	case "nat":
		return func() nf.NF { return nfnat.New() }, func(vx *runtime.Vertex) {
			vx.Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
		}, nil
	case "portscan":
		return func() nf.NF { return nfps.New() }, noSeed, nil
	case "trojan":
		return func() nf.NF { return nftrojan.New() }, noSeed, nil
	case "lb":
		n := v.Backends
		if n == 0 {
			n = 8
		}
		return func() nf.NF { return nflb.New(n) }, func(vx *runtime.Vertex) {
			vx.Seed(func(apply func(store.Request)) { nflb.New(n).SeedServers(apply) })
		}, nil
	case "pass", "":
		return func() nf.NF { return passNF{} }, noSeed, nil
	default:
		return nil, nil, fmt.Errorf("unknown nf %q", v.NF)
	}
}

func parseBackend(s string) (runtime.BackendKind, error) {
	switch s {
	case "chc", "":
		return runtime.BackendCHC, nil
	case "traditional":
		return runtime.BackendTraditional, nil
	case "locking":
		return runtime.BackendLocking, nil
	default:
		return 0, fmt.Errorf("unknown backend %q", s)
	}
}

func parseMode(s string) (store.Mode, error) {
	switch s {
	case "eo":
		return store.ModeEO, nil
	case "eoc":
		return store.ModeEOC, nil
	case "eocna", "":
		return store.ModeEOCNA, nil
	default:
		return store.Mode{}, fmt.Errorf("unknown mode %q", s)
	}
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, rest := args[0], args[1:]
		switch cmd {
		case "run":
			runMain(rest)
		case "worker":
			workerMain(rest)
		case "coordinator":
			coordinatorMain(rest)
		default:
			fmt.Fprintf(os.Stderr, "chcd: unknown command %q (want run, worker or coordinator)\n", cmd)
			os.Exit(2)
		}
		return
	}
	// Flat-flag compatibility: a first argument starting with '-' (or no
	// arguments at all) is the historical single-process CLI, dispatched
	// to "chcd run" unchanged.
	runMain(args)
}

// chainTuning is the flag group shared by every mode that builds a chain.
type chainTuning struct {
	shards       *int
	ckptInterval *time.Duration
	ckptRetain   *int
}

func addChainTuning(fs *flag.FlagSet) chainTuning {
	return chainTuning{
		shards:       fs.Int("shards", 0, "datastore shard servers (overrides config; 0 keeps config/default)"),
		ckptInterval: fs.Duration("ckpt-interval", 0, "periodic durable store checkpoints + WAL truncation (0 disables)"),
		ckptRetain:   fs.Int("ckpt-retain", 0, "committed checkpoints each shard retains (0 keeps the default of 2)"),
	}
}

func (ct chainTuning) apply(cfg configJSON, ccfg *runtime.ChainConfig) {
	if cfg.Seed != 0 {
		ccfg.Seed = cfg.Seed
	}
	ccfg.StoreShards = cfg.Shards
	if *ct.shards > 0 {
		ccfg.StoreShards = *ct.shards
	}
	ccfg.CheckpointEvery = *ct.ckptInterval
	ccfg.CheckpointRetain = *ct.ckptRetain
}

// traceTuning is the flag group shared by every mode that offers traffic.
type traceTuning struct {
	tracePath *string
	flows     *int
	gbps      *int64
	udpFrac   *float64
	settle    *time.Duration
}

func addTraceTuning(fs *flag.FlagSet) traceTuning {
	return traceTuning{
		tracePath: fs.String("trace", "", "trace file (from tracegen); empty generates one"),
		flows:     fs.Int("flows", 500, "generated trace connections"),
		gbps:      fs.Int64("gbps", 2, "offered load in Gbps"),
		udpFrac:   fs.Float64("udp-frac", 0, "fraction of generated flows as UDP (drives DAG fork classes)"),
		settle:    fs.Duration("settle", 500*time.Millisecond, "post-trace settle time (virtual)"),
	}
}

func (tt traceTuning) load(seed int64) *trace.Trace {
	if *tt.tracePath != "" {
		f, err := os.Open(*tt.tracePath)
		if err != nil {
			fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		return tr
	}
	tr := trace.Generate(trace.Config{Seed: seed, Flows: *tt.flows,
		PktsPerFlowMean: 16, PayloadMedian: 1394, Hosts: 32, Servers: 16,
		UDPFrac: *tt.udpFrac})
	tr.Pace(*tt.gbps * 1_000_000_000)
	return tr
}

// buildChain compiles the config into a deployed chain on ccfg's
// substrate: topology, vertex specs, Start, then the NF seeders (which
// self-gate to the seeding instance's home node on SubstrateNet).
func buildChain(cfg configJSON, ccfg runtime.ChainConfig) *runtime.Chain {
	if len(cfg.Paths) > 0 {
		topo := &runtime.TopologySpec{}
		for _, p := range cfg.Paths {
			topo.Paths = append(topo.Paths, runtime.PathSpec{Class: p.Class, Vertices: p.Vertices})
		}
		ccfg.Topology = topo
	}
	var specs []runtime.VertexSpec
	var seeders []func(*runtime.Vertex)
	for _, v := range cfg.Vertices {
		mk, seeder, err := makeNF(v)
		if err != nil {
			fatal(err)
		}
		backend, err := parseBackend(v.Backend)
		if err != nil {
			fatal(err)
		}
		mode, err := parseMode(v.Mode)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, runtime.VertexSpec{
			Name: v.Name, Make: mk, Instances: v.Instances,
			Backend: backend, Mode: mode, OffPath: v.OffPath,
		})
		seeders = append(seeders, seeder)
	}
	ch := runtime.New(ccfg, specs...)
	ch.Start()
	for i, seeder := range seeders {
		seeder(ch.Vertices[i])
	}
	return ch
}

// runMain is the single-process mode: deploy, run one trace, report.
func runMain(args []string) {
	fs := flag.NewFlagSet("chcd run", flag.ExitOnError)
	cfgPath := fs.String("config", "", "chain config JSON (required)")
	tt := addTraceTuning(fs)
	ct := addChainTuning(fs)
	live := fs.Bool("live", false, "run on real goroutines and wall-clock time (livenet)")
	jsonPath := fs.String("json", "", "write a machine-readable run report to this path (- for stdout)")
	admin := fs.String("admin", "", "serve the controller admin API (HTTP JSON) on this address while the run is active (live mode only)")
	autoscale := fs.String("autoscale", "", "start the metrics-driven autoscaler on this vertex")
	asLow := fs.Float64("as-low", 3_000, "autoscaler low band edge (pkts/s per instance)")
	asHigh := fs.Float64("as-high", 20_000, "autoscaler high band edge (pkts/s per instance)")
	asMin := fs.Int("as-min", 1, "autoscaler minimum replicas")
	asMax := fs.Int("as-max", 4, "autoscaler maximum replicas")
	fs.Parse(args)

	cfg := loadConfig(*cfgPath)
	ccfg := runtime.DefaultChainConfig()
	ccfg.DefaultServiceTime = 2 * time.Microsecond
	ccfg.DefaultThreads = 2
	if *live {
		ccfg = runtime.LiveChainConfig()
	}
	ct.apply(cfg, &ccfg)
	ch := buildChain(cfg, ccfg)
	ctl := ch.Controller()
	if *autoscale != "" {
		interval := 50 * time.Millisecond
		if !*live {
			interval = 2 * time.Millisecond // DES: virtual-time sampling
		}
		if _, err := ctl.StartAutoscaler(runtime.AutoscalerConfig{
			Vertex: *autoscale, Min: *asMin, Max: *asMax,
			LowPPS: *asLow, HighPPS: *asHigh, Interval: interval,
		}); err != nil {
			fatal(err)
		}
	}
	var adminSrv *http.Server
	if *admin != "" {
		if !*live {
			fatal(errors.New("-admin requires -live (the DES has no real-time event loop to serve HTTP against)"))
		}
		adminSrv = startAdmin(*admin, ch)
	}

	tr := tt.load(ccfg.Seed)

	mode := "sim"
	if *live {
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
	elapsed := ch.RunTrace(tr, *tt.settle)
	if *live {
		if !ch.AwaitDrained(30 * time.Second) {
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

	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	pps := float64(ch.Root.Injected) / secs
	goodputBps := float64(ch.Sink.Bytes) * 8 / secs
	fmt.Printf("rate:  %.0f pkts/s ingest, %.2f Gbps goodput over %.2fs (%s clock)\n",
		pps, goodputBps/1e9, secs, mode)
	if *live {
		fmt.Printf("burst: root bursts=%d arena reuse=%d store burst rpcs=%d\n",
			ch.Root.Bursts, ch.Metrics.Counter("arena.reuse"), ch.Metrics.Counter("client.burst_rpcs"))
	}

	if *jsonPath != "" {
		report := makeReport(ch, status, mode, secs, tr.Len())
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fatal(err)
		}
	}
}

// runReport is the -json output: the live-mode perf artifact CI records.
type runReport struct {
	Mode string `json:"mode"`
	// Controller is the control-plane status block: current spec, the
	// recent reconcile actions, and the autoscaler decision counters the
	// live-soak CI gate asserts on.
	Controller   runtime.ControllerStatus `json:"controller"`
	ElapsedSec   float64                  `json:"elapsed_sec"`
	Offered      int                      `json:"offered_pkts"`
	Injected     uint64                   `json:"injected"`
	Deleted      uint64                   `json:"deleted"`
	LogResidue   int                      `json:"log_residue"`
	SinkReceived uint64                   `json:"sink_received"`
	SinkDups     uint64                   `json:"sink_duplicates"`
	PktsPerSec   float64                  `json:"pkts_per_sec"`
	GoodputGbps  float64                  `json:"goodput_gbps"`
	P50us        float64                  `json:"latency_p50_us"`
	P95us        float64                  `json:"latency_p95_us"`
	P99us        float64                  `json:"latency_p99_us"`
	// LatencyDropped counts the packets the latency series dropped past
	// its sample cap; the percentiles above leave them out.
	LatencyDropped int `json:"latency_dropped"`
	// Burst hot-path counters: the live CI gate asserts all three are
	// nonzero so a drift that silently disables batching fails the build.
	// On the DES every packet is a root burst of one and the other two
	// stay zero.
	RootBursts      uint64 `json:"root_bursts"`
	ArenaReuse      uint64 `json:"arena_reuse"`
	ClientBurstRPCs uint64 `json:"client_burst_rpcs"`
	// Cross-node transport counters (net mode; zero elsewhere): the
	// multi-process CI gate asserts the run really crossed sockets.
	RemoteMsgs  uint64 `json:"remote_msgs"`
	RemoteCalls uint64 `json:"remote_calls"`
	RemoteBytes uint64 `json:"remote_bytes"`
}

// makeReport assembles the machine-readable run report from a finished
// (or drained) chain.
func makeReport(ch *runtime.Chain, status runtime.ControllerStatus, mode string, secs float64, offered int) runReport {
	e2e := ch.Metrics.Get("total.chain")
	ns := ch.NetStats()
	return runReport{
		Mode:            mode,
		Controller:      status,
		ElapsedSec:      secs,
		Offered:         offered,
		Injected:        ch.Root.Injected,
		Deleted:         ch.Root.Deleted,
		LogResidue:      ch.Root.LogSize(),
		SinkReceived:    ch.Sink.Received,
		SinkDups:        ch.Sink.Duplicates,
		PktsPerSec:      float64(ch.Root.Injected) / secs,
		GoodputGbps:     float64(ch.Sink.Bytes) * 8 / secs / 1e9,
		P50us:           float64(e2e.Percentile(50).Nanoseconds()) / 1e3,
		P95us:           float64(e2e.Percentile(95).Nanoseconds()) / 1e3,
		P99us:           float64(e2e.Percentile(99).Nanoseconds()) / 1e3,
		LatencyDropped:  e2e.Dropped(),
		RootBursts:      ch.Root.Bursts,
		ArenaReuse:      ch.Metrics.Counter("arena.reuse"),
		ClientBurstRPCs: ch.Metrics.Counter("client.burst_rpcs"),
		RemoteMsgs:      ns.RemoteMsgs,
		RemoteCalls:     ns.RemoteCalls,
		RemoteBytes:     ns.RemoteBytes,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chcd:", err)
	os.Exit(1)
}
