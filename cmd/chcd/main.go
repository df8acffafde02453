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
//	chcd run -config chain.json -trace trace.chct
//	chcd run -config chain.json -flows 500 -gbps 2
//	chcd run -config chain.json -shards 4          # 4-shard datastore tier
//	chcd run -config dag.json -udp-frac 0.4        # mixed-class traffic for a fork
//	chcd run -config dag.json -live -json out.json # real goroutines + wall clock
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
// The first argument selects the role: "run" (the single-process
// behavior above, run.go), "worker" (worker.go) or "coordinator"
// (coordinator.go). Each role owns its flag set; run and coordinator share
// the offered-load flags -flows, -gbps, -udp-frac and -settle (offer), and
// a config file is checked whole, with unknown fields, duplicate or empty
// vertex names and malformed paths reported before anything is built.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"chc/internal/nf"
	nflb "chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	nfps "chc/internal/nf/portscan"
	nftrojan "chc/internal/nf/trojan"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: chcd run|worker|coordinator -config FILE [flags]")
		os.Exit(2)
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "run":
		runMain(args)
	case "worker":
		workerMain(args)
	case "coordinator":
		coordinatorMain(args)
	default:
		fmt.Fprintf(os.Stderr, "chcd: unknown command %q (want run, worker or coordinator)\n", os.Args[1])
		os.Exit(2)
	}
}

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

// nodeJSON is one node of a multi-process deployment: its netnet
// placement (prefix matching applies, so "v1" homes every v1 instance not
// claimed elsewhere, including failover replacements minted later) and
// the admin API address its worker serves.
type nodeJSON struct {
	transport.NodeSpec
	Admin string `json:"admin"`
}

// config is a chain config file, checked and compiled into the runtime's
// vertex specs by parseConfig.
type config struct {
	Vertices []vertexJSON `json:"vertices"`
	Seed     int64        `json:"seed"`
	// Shards sizes the datastore tier (consistent-hash key partitioning);
	// 0 or 1 deploys the single store server.
	Shards int `json:"shards"`
	// Paths, when present, generalize the chain into a policy DAG: one
	// ordered vertex path per traffic class, with the root classifying
	// packets by IP protocol. Empty keeps the linear declaration order.
	Paths []runtime.PathSpec `json:"paths"`
	// Nodes, when present, declare the multi-process deployment's nodes
	// (worker and coordinator). Ignored by run.
	Nodes []nodeJSON `json:"nodes"`

	specs   []runtime.VertexSpec
	seeders []func(*runtime.Vertex)
}

// parseConfig decodes a config file and checks it whole: no unknown
// field, at least one vertex, every vertex named once and built from a
// known NF, backend and mode, and paths that runtime.New accepts.
func parseConfig(raw []byte) (*config, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	cfg := &config{}
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("parse config: %w", err)
	}
	if len(cfg.Vertices) == 0 {
		return nil, errors.New("config has no vertices")
	}
	names := make(map[string]bool, len(cfg.Vertices))
	for _, v := range cfg.Vertices {
		if v.Name == "" || names[v.Name] {
			return nil, fmt.Errorf("config: vertex name %q is empty or repeated", v.Name)
		}
		names[v.Name] = true
		spec, seeder, err := compileVertex(v)
		if err != nil {
			return nil, fmt.Errorf("config: vertex %q: %w", v.Name, err)
		}
		cfg.specs = append(cfg.specs, spec)
		cfg.seeders = append(cfg.seeders, seeder)
	}
	if len(cfg.Paths) > 0 {
		if err := (&runtime.TopologySpec{Paths: cfg.Paths}).Validate(cfg.specs); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
	}
	return cfg, nil
}

func loadConfig(path string) *config {
	if path == "" {
		fmt.Fprintln(os.Stderr, "chcd: -config is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	cfg, err := parseConfig(raw)
	if err != nil {
		fatal(err)
	}
	return cfg
}

// adminOf returns the admin address of the named node.
func (c *config) adminOf(node string) string {
	for _, n := range c.Nodes {
		if n.Name == node {
			return n.Admin
		}
	}
	return ""
}

// nodeSpecs returns the nodes' transport placement.
func (c *config) nodeSpecs() []transport.NodeSpec {
	out := make([]transport.NodeSpec, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.NodeSpec
	}
	return out
}

// compileVertex turns one config vertex into its runtime spec and the
// seeder that preloads its NF's store state once the chain has started.
func compileVertex(v vertexJSON) (runtime.VertexSpec, func(*runtime.Vertex), error) {
	spec := runtime.VertexSpec{Name: v.Name, Instances: v.Instances,
		Backend: runtime.BackendCHC, Mode: store.ModeEOCNA, OffPath: v.OffPath}
	seeder := func(*runtime.Vertex) {}
	switch v.NF {
	case "nat":
		spec.Make = func() nf.NF { return nfnat.New() }
		seeder = func(vx *runtime.Vertex) {
			vx.Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
		}
	case "portscan":
		spec.Make = func() nf.NF { return nfps.New() }
	case "trojan":
		spec.Make = func() nf.NF { return nftrojan.New() }
	case "lb":
		n := v.Backends
		if n == 0 {
			n = 8
		}
		spec.Make = func() nf.NF { return nflb.New(n) }
		seeder = func(vx *runtime.Vertex) {
			vx.Seed(func(apply func(store.Request)) { nflb.New(n).SeedServers(apply) })
		}
	case "pass", "":
		spec.Make = func() nf.NF { return nf.Pass{} }
	default:
		return spec, nil, fmt.Errorf("unknown nf %q", v.NF)
	}
	switch v.Backend {
	case "chc", "":
	case "traditional":
		spec.Backend = runtime.BackendTraditional
	case "locking":
		spec.Backend = runtime.BackendLocking
	default:
		return spec, nil, fmt.Errorf("unknown backend %q", v.Backend)
	}
	if v.Mode != "" {
		var err error
		if spec.Mode, err = store.ParseMode(v.Mode); err != nil {
			return spec, nil, err
		}
	}
	return spec, seeder, nil
}

// chainTuning is the flag group shared by every role that builds a chain.
type chainTuning struct {
	shards       int
	ckptInterval *time.Duration // nil: the substrate's default
}

func (ct *chainTuning) register(fs *flag.FlagSet) {
	fs.IntVar(&ct.shards, "shards", 0, "datastore shard servers (overrides config; 0 keeps config/default)")
	fs.Func("ckpt-interval", "periodic durable store checkpoints + WAL truncation (default 100ms on -live and net, off on the DES; 0 disables)",
		func(v string) error {
			d, err := time.ParseDuration(v)
			ct.ckptInterval = &d
			return err
		})
}

// apply overrides ccfg with the tuning flags that were given.
func (ct chainTuning) apply(ccfg *runtime.ChainConfig) {
	if ct.shards > 0 {
		ccfg.StoreShards = ct.shards
	}
	if ct.ckptInterval != nil {
		ccfg.CheckpointEvery = *ct.ckptInterval
	}
}

// buildChain deploys cfg on ccfg's substrate with ct applied: topology,
// vertex specs, Start, then the NF seeders (which self-gate to the seeding
// instance's home node on SubstrateNet).
func buildChain(cfg *config, ct chainTuning, ccfg runtime.ChainConfig) *runtime.Chain {
	if cfg.Seed != 0 {
		ccfg.Seed = cfg.Seed
	}
	ccfg.StoreShards = cfg.Shards
	ct.apply(&ccfg)
	if len(cfg.Paths) > 0 {
		ccfg.Topology = &runtime.TopologySpec{Paths: cfg.Paths}
	}
	ch := runtime.New(ccfg, cfg.specs...)
	ch.Start()
	for i, seeder := range cfg.seeders {
		seeder(ch.Vertices[i])
	}
	return ch
}

// drainBudget bounds how long a real-time run waits for the chain to
// drain after its trace.
const drainBudget = 30 * time.Second

// offer is the load a run puts on the chain: a generated trace of Flows
// connections (UDPFrac of them UDP) paced at Gbps, then Settle of quiet.
// run and coordinator register it as flags; it is also the POST /run
// body, which the worker decodes over the same defaults.
type offer struct {
	Flows   int           `json:"flows"`
	Gbps    int64         `json:"gbps"`
	UDPFrac float64       `json:"udp_frac"`
	Settle  time.Duration `json:"settle"`
}

func defaultOffer() offer {
	return offer{Flows: 500, Gbps: 2, Settle: 500 * time.Millisecond}
}

// register resets o to the defaults and binds its fields to flags on fs.
func (o *offer) register(fs *flag.FlagSet) {
	*o = defaultOffer()
	fs.IntVar(&o.Flows, "flows", o.Flows, "generated trace connections")
	fs.Int64Var(&o.Gbps, "gbps", o.Gbps, "offered load in Gbps")
	fs.Float64Var(&o.UDPFrac, "udp-frac", o.UDPFrac, "fraction of generated flows as UDP (drives DAG fork classes)")
	fs.DurationVar(&o.Settle, "settle", o.Settle, "post-trace settle time")
}

// trace generates and paces the offered trace.
func (o offer) trace(seed int64) *trace.Trace {
	tr := trace.Generate(trace.Config{Seed: seed, Flows: o.Flows,
		PktsPerFlowMean: 16, PayloadMedian: 1394, Hosts: 32, Servers: 16,
		UDPFrac: o.UDPFrac})
	tr.Pace(o.Gbps * 1_000_000_000)
	return tr
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
// (or drained) chain; a zero elapsed time counts as one second.
func makeReport(ch *runtime.Chain, status runtime.ControllerStatus, mode string, elapsed time.Duration, offered int) runReport {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
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

// writeReport writes the report as indented JSON to path, or to stdout
// for "-".
func writeReport(path string, report runReport) {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if path == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chcd:", err)
	os.Exit(1)
}
