package main

import (
	"chc/internal/nf"
	nflb "chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	nfps "chc/internal/nf/portscan"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// Every workload runs nat -> ids(portscan) -> lb, one instance each. The
// names below are the vertex names, and so the names of the proc.* series.
const (
	vNAT = "nat"
	vIDS = "ids"
	vLB  = "lb"
)

const lbBackends = 8

// workload is one set of inputs the benchmark runs: a chain shape, a state
// model, a substrate and the open-loop rate frozen for it.
type workload struct {
	name string
	why  string
	// ratePPS is the open-loop offered rate, frozen at about half of the
	// seed commit's chain_pps on the reference box so parent and change
	// always see the same offered load.
	ratePPS int
	net     bool // SubstrateNet (two loopback nodes) instead of SubstrateLive
	fork    bool // policy DAG tcp: nat->lb, udp: ids->lb instead of the line
	backend runtime.BackendKind
	mode    store.Mode
}

var workloads = []workload{
	{
		name: "fwd_t", ratePPS: 50000, backend: runtime.BackendTraditional,
		why: "live, NF-local state: no store traffic, so root, splitter, mailboxes, instance loop and sink do all the work (bare forwarding)",
	},
	{
		name: "state_na", ratePPS: 12000, backend: runtime.BackendCHC, mode: store.ModeEOCNA,
		why: "live, EO+C+NA: the paper's headline model; async ops, coalescing, burst RPC, acks, commits and the XOR check dominate",
	},
	{
		name: "state_eo", ratePPS: 9000, backend: runtime.BackendCHC, mode: store.ModeEO,
		why: "live, EO: the same store layers used the other way, every op a blocking round trip, no cache, no batching",
	},
	{
		name: "net_fork", ratePPS: 8000, backend: runtime.BackendCHC, mode: store.ModeEOCNA, net: true, fork: true,
		why: "two loopback TCP nodes and a tcp/udp policy DAG: wire codec, framing and sockets carry about one remote message per packet",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// substrate names where the traffic flows, for the output header.
func (w *workload) substrate() string {
	if w.net {
		return "net: two in-process netnet nodes joined by 127.0.0.1 loopback TCP (no real link)"
	}
	return "live: goroutines and mailboxes in one process (no link at all)"
}

// traceConfig is the workload's input: 4000 flows of about 19 packets.
// Laps over the trace reuse the same 5-tuples, so the state working set
// stays at the flow count however long a phase runs.
func (w *workload) traceConfig(seed int64, flows int) trace.Config {
	if flows <= 0 {
		flows = 4000
	}
	cfg := trace.Config{
		Seed: seed, Flows: flows, PktsPerFlowMean: 14,
		PayloadMedian: 1000, Hosts: 32, Servers: 16,
	}
	if w.fork {
		cfg.UDPFrac = 0.35
	}
	return cfg
}

// forkNodes places root, sink, store and the NAT on node a and the scan
// detector and the balancer on node b, so every packet crosses the
// socket once on its way to the sink's node and back.
func forkNodes() []transport.NodeSpec {
	return []transport.NodeSpec{
		{Name: "a", Endpoints: []string{"root0", "sink", "store0", "driver", "framework", "stats-query", "v1"}},
		{Name: "b", Endpoints: []string{"v2", "v3"}},
	}
}

// newChain builds (does not start) the workload's chain through the
// public constructors. shards > 1 is the ungated reproducer path.
func (w *workload) newChain(seed int64, shards int, sub runtime.Substrate) *runtime.Chain {
	var cfg runtime.ChainConfig
	switch {
	case sub == runtime.SubstrateSim:
		cfg = runtime.DefaultChainConfig()
	case w.net:
		cfg = runtime.NetChainConfig(forkNodes(), "")
	default:
		cfg = runtime.LiveChainConfig()
	}
	cfg.Seed = seed
	cfg.StoreShards = shards
	if w.fork {
		cfg.Topology = &runtime.TopologySpec{Paths: []runtime.PathSpec{
			{Class: "tcp", Vertices: []string{vNAT, vLB}},
			{Class: "udp", Vertices: []string{vIDS, vLB}},
		}}
	}
	spec := func(name string, mk func() nf.NF) runtime.VertexSpec {
		return runtime.VertexSpec{Name: name, Make: mk, Instances: 1, Backend: w.backend, Mode: w.mode}
	}
	return runtime.New(cfg,
		spec(vNAT, func() nf.NF { return nfnat.New() }),
		spec(vIDS, func() nf.NF { return nfps.New() }),
		spec(vLB, func() nf.NF { return nflb.New(lbBackends) }),
	)
}

// seedState fills the NAT port pool and the balancer's server table.
func seedState(ch *runtime.Chain) {
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	ch.Vertices[2].Seed(func(apply func(store.Request)) { nflb.New(lbBackends).SeedServers(apply) })
}
