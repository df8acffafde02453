package main

import (
	"encoding/json"
	"math"
)

// The run shape frozen in BENCHMARK.json: --seconds is the measured time
// of one run, split evenly between the open-loop and the closed-loop
// phase (10 s each). The traced pass halves both phases and spends the
// other half on the per-layer probes.
const runSeconds = 20

// metricDef is one metric row of BENCHMARK.json. An end-to-end metric is
// what a user of the chain would see and carries a bound: the share of
// the parent's median by which it may worsen before a change is a
// regression. Per-layer metrics have no bound.
type metricDef struct {
	name, unit, better string
	bound              float64
	why                string
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{"chain_pps", "pkts/s", higher, 0.25,
		"root Deleted delta over the closed-loop phase per second: completions, never ingest; at reference speed"},
	{"lat_p50_us", "us", lower, 0.25,
		"median root-stamp-to-sink latency at the workload's frozen rate_pps (median of ten equal windows); at reference speed"},
	{"cpu_us_per_pkt", "us", lower, 0.25,
		"process user+sys CPU over the closed-loop phase per completed packet: what an operator pays in cores; at reference speed"},
	{"allocs_per_pkt", "allocs", lower, 0.03,
		"MemStats.Mallocs delta over the closed-loop phase per completed packet"},
	{"heap_mb", "MiB", lower, 0.10,
		"HeapInuse after the open-loop phase (a fixed packet count), drained and collected: retention moved out of the timed phases shows here"},
	{"setup_s", "s", lower, 0.25,
		"trace generation + NewChain + Start + seeding, median of 21 set-ups in the run; at reference speed"},
}

var perLayer = []metricDef{
	// packet
	{"packet.flowhash_ns", "ns", lower, 0, "probe: Key().Canonical().Hash() over the workload's packets"},
	{"packet.marshal_ns", "ns", lower, 0, "probe: Packet.Marshal (header codec; net_fork only uses it)"},
	{"packet.arena_getput_ns", "ns", lower, 0, "probe: Arena.Get + Arena.Put"},
	{"packet.arena_reuse_ratio", "ratio", higher, 0, "in-run: Arena.Reuses / Arena.Puts"},
	// trace
	{"trace.generate_ns_per_pkt", "ns", lower, 0, "probe: trace.Generate wall time per generated packet (moves setup_s)"},
	// livenet
	{"livenet.send_recv_ns", "ns", lower, 0, "probe: two procs ping-pong one message; ns per one-way hop"},
	{"livenet.sendburst32_ns_per_msg", "ns", lower, 0, "probe: SendBurst of 32 PacketMsg to a draining proc"},
	{"livenet.allocs_per_msg", "allocs", lower, 0, "probe: Mallocs per message in the burst probe"},
	{"livenet.call_rtt_ns", "ns", lower, 0, "probe: Call round trip between two procs"},
	{"livenet.msgs_per_pkt", "count", lower, 0, "in-run: LinkStats sent, summed over the chain's endpoints, per packet"},
	// transport
	{"transport.wire_enc_ns.packetmsg", "ns", lower, 0, "probe: EncodePayload(PacketMsg)"},
	{"transport.wire_dec_ns.packetmsg", "ns", lower, 0, "probe: DecodePayload(PacketMsg)"},
	{"transport.wire_enc_ns.asyncbatch", "ns", lower, 0, "probe: EncodePayload(AsyncBatchMsg of 32 ops)"},
	{"transport.wire_dec_ns.asyncbatch", "ns", lower, 0, "probe: DecodePayload(AsyncBatchMsg of 32 ops)"},
	{"transport.wire_allocs_per_msg", "allocs", lower, 0, "probe: Mallocs per PacketMsg encode+decode"},
	// netnet
	{"netnet.burst32_ns_per_msg", "ns", lower, 0, "probe: SendBurst of 32 PacketMsg across two loopback nodes"},
	{"netnet.call_rtt_ns", "ns", lower, 0, "probe: Call round trip across two loopback nodes"},
	{"netnet.allocs_per_msg", "allocs", lower, 0, "probe: Mallocs per message in the cross-node burst probe"},
	{"netnet.remote_msgs_per_pkt", "count", lower, 0, "in-run: NetStats.RemoteMsgs per packet"},
	{"netnet.remote_bytes_per_pkt", "bytes", lower, 0, "in-run: NetStats.RemoteBytes per packet"},
	{"netnet.remote_calls_per_pkt", "count", lower, 0, "in-run: NetStats.RemoteCalls per packet"},
	// store
	{"store.engine_apply_ns.incr", "ns", lower, 0, "probe: Engine.Apply(OpIncr) with a clock, then PruneClock"},
	{"store.engine_apply_ns.get", "ns", lower, 0, "probe: Engine.Apply(OpGet)"},
	{"store.engine_apply_ns.set", "ns", lower, 0, "probe: Engine.Apply(OpSet) with a clock, then PruneClock"},
	{"store.client_async_ns_per_op", "ns", lower, 0, "probe: Client.Update x32 + FlushBurst against a Server on livenet, acks pumped"},
	{"store.client_blocking_rtt_ns", "ns", lower, 0, "probe: Client.UpdateBlocking round trip against a Server on livenet"},
	{"store.blocking_ops_per_pkt", "count", lower, 0, "in-run: client.blocking_ops per packet"},
	{"store.async_ops_per_pkt", "count", lower, 0, "in-run: client.async_ops per packet"},
	{"store.coalesced_ratio", "ratio", higher, 0, "in-run: client.coalesced_ops / (coalesced_ops + async_ops)"},
	{"store.cache_hit_ratio", "ratio", higher, 0, "in-run: client.cache_hits / (hits + misses)"},
	{"store.burst_rpcs_per_pkt", "count", lower, 0, "in-run: client.burst_rpcs per packet"},
	{"store.retransmits_per_mpkt", "count", lower, 0, "in-run: client.retransmits per million packets (100 ms ack timer)"},
	// nf
	{"nf.process_ns.nat", "ns", lower, 0, "probe: nat.Process on NewLocalState (NF logic alone)"},
	{"nf.process_ns.portscan", "ns", lower, 0, "probe: portscan.Process on NewLocalState"},
	{"nf.process_ns.lb", "ns", lower, 0, "probe: lb.Process on NewLocalState"},
	// runtime
	{"runtime.root_proc_p50_ns", "ns", lower, 0, "in-run: median of the proc.root series (stamp, clone-to-log)"},
	{"runtime.proc_p50_ns.nat", "ns", lower, 0, "in-run: median of proc.nat (dequeue to done, store waits included)"},
	{"runtime.proc_p50_ns.ids", "ns", lower, 0, "in-run: median of proc.ids"},
	{"runtime.proc_p50_ns.lb", "ns", lower, 0, "in-run: median of proc.lb"},
	{"runtime.root_burst_mean", "pkts", higher, 0, "in-run: root Injected / Bursts"},
	{"runtime.root_echo_p50_us", "us", lower, 0, "in-run: harness-timed QueryRootStats, median: time work waits for the root"},
	{"runtime.root_echo_p99_us", "us", lower, 0, "in-run: the same, 99th percentile"},
	{"runtime.inject_ns_per_pkt", "ns", lower, 0, "in-run: harness time in arena Get + copy + SendBurst per packet"},
	{"runtime.lat_p90_us", "us", lower, 0, "in-run, open loop: 90th percentile of the samples behind lat_p50_us (median of ten windows), as measured"},
	{"runtime.lat_p99_us", "us", lower, 0, "in-run, open loop: their 99th percentile; it is the length of the root's retransmission sweep, and too unsteady to bound"},
	{"runtime.hold_mean_us", "us", lower, 0, "in-run, open loop: mean of (Injected - Deleted) / rate over the root echoes: by Little's law the mean stamp-to-delete time"},
	{"runtime.lat_closed_p50_us", "us", lower, 0, "in-run: median total.chain latency with the window full"},
	{"runtime.pps_last_over_first", "ratio", higher, 0, "in-run: last-quarter over first-quarter closed-loop pps (per-packet maps and series grow)"},
	{"runtime.drain_ms", "ms", lower, 0, "in-run: AwaitDrained after the closed-loop phase"},
	{"runtime.replay_filtered", "count", lower, 0, "in-run: Sink.ReplayFiltered (sweep retransmissions that re-traversed the chain)"},
	// simnet
	{"simnet.wall_us_per_pkt", "us", lower, 0, "in-run: one trace lap of the same NA chain through RunTrace on the DES, wall clock per packet"},
	// harness
	{"harness.gen_late_p99_us", "us", lower, 0, "open loop: 99th percentile of (send time - due time) per burst"},
	{"harness.achieved_rate_frac", "ratio", higher, 0, "open loop: packets sent / packets due"},
	{"harness.box_speed", "ratio", higher, 0, "calibration kernel speed during the closed loop over its speed on the reference box; timed end-to-end metrics are restated at 1"},
	{"harness.trace_overhead_frac", "ratio", lower, 0, "closed loop: 1 - pps in span-recording slices / pps in the alternating untraced slices"},
	{"budget.coverage", "ratio", higher, 0, "sum of probe ns x in-run calls per packet over cpu_us_per_pkt: how much of a packet's CPU the ladder explains"},
}

// manifestJSON renders BENCHMARK.json from the tables above, so the file and
// the program cannot disagree about a name, a unit or a bound.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}
	doc.Command = []string{"bash", "bench/run.sh"}
	doc.Paths = []string{"bench"}
	doc.RunSeconds = runSeconds
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// pick returns the values of defs with their units, and the names of
// those that were not measured (or came out as no number at all).
func (m metricSet) pick(defs []metricDef) (out map[string]value, missing []string) {
	out = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = value{v, d.unit}
	}
	return out, missing
}
