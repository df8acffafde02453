package main

import (
	"fmt"
	"time"

	"chc/internal/livenet"
	"chc/internal/netnet"
	"chc/internal/nf"
	nflb "chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	nfps "chc/internal/nf/portscan"
	"chc/internal/packet"
	"chc/internal/runtime"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// inRunLayers fills the per-layer metrics that are read, after the chain
// has stopped, from counters the program already exports, each divided
// by the packets the root stamped.
func (r *run) inRunLayers(ns netnet.NetStats, linkMsgs uint64) {
	m, met := r.m, r.ch.Metrics
	pkts := r.ch.Root.Injected
	arena := r.ch.Arena()
	m["packet.arena_reuse_ratio"] = ratio(arena.Reuses(), arena.Puts())
	m["livenet.msgs_per_pkt"] = ratio(linkMsgs, pkts)
	m["netnet.remote_msgs_per_pkt"] = ratio(ns.RemoteMsgs, pkts)
	m["netnet.remote_bytes_per_pkt"] = ratio(ns.RemoteBytes, pkts)
	m["netnet.remote_calls_per_pkt"] = ratio(ns.RemoteCalls, pkts)

	async, coalesced := met.Counter("client.async_ops"), met.Counter("client.coalesced_ops")
	hits, misses := met.Counter("client.cache_hits"), met.Counter("client.cache_misses")
	m["store.blocking_ops_per_pkt"] = ratio(met.Counter("client.blocking_ops"), pkts)
	m["store.async_ops_per_pkt"] = ratio(async, pkts)
	m["store.coalesced_ratio"] = ratio(coalesced, coalesced+async)
	m["store.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["store.burst_rpcs_per_pkt"] = ratio(met.Counter("client.burst_rpcs"), pkts)
	m["store.retransmits_per_mpkt"] = 1e6 * ratio(met.Counter("client.retransmits"), pkts)

	m["runtime.root_proc_p50_ns"] = float64(met.Get("proc.root").Percentile(50))
	for _, v := range []string{vNAT, vIDS, vLB} {
		m["runtime.proc_p50_ns."+v] = float64(met.Get("proc." + v).Percentile(50))
	}
	m["runtime.root_burst_mean"] = ratio(pkts, r.ch.Root.Bursts)
	m["runtime.replay_filtered"] = float64(r.ch.Sink.ReplayFiltered)
}

// probeBatch is how many calls one probe span covers.
const probeBatch = 1024

// probe calls fn in batches until d has passed or maxCalls calls were
// made (0 = no cap), one span per batch, and returns wall nanoseconds and
// Mallocs per call. It runs on whichever goroutine calls it; the probes
// that need a transport proc call it from inside one.
func (r *run) probe(name string, d time.Duration, batch, maxCalls int, fn func(i int)) (ns, allocs float64) {
	mal0 := mallocs()
	start := time.Now()
	calls := 0
	for time.Since(start) < d && (maxCalls == 0 || calls < maxCalls) {
		id := r.rec.begin(name)
		for j := 0; j < batch; j++ {
			fn(calls)
			calls++
		}
		r.rec.end(id)
	}
	elapsed := time.Since(start)
	return float64(elapsed) / float64(calls), float64(mallocs()-mal0) / float64(calls)
}

// onProc runs fn as a transport proc of net and waits for it to return.
func onProc(net transport.Transport, name string, fn func(p transport.Proc)) {
	done := net.NewSignal()
	net.Spawn(name, func(p transport.Proc) {
		fn(p)
		done.Resolve(nil)
	})
	net.Drive(done, time.Minute)
}

// pkt returns the i'th packet of the workload's trace, cycling.
func (r *run) pkt(i int) *packet.Packet { return r.tr.Events[i%len(r.tr.Events)].Pkt }

// runProbes times each layer's public functions in isolation, fed the
// workload's own packets, sharing budget evenly between the probe loops.
func runProbes(r *run, budget time.Duration) {
	const loops = 21
	d := budget / loops
	top := r.rec.begin("probes")
	defer r.rec.end(top)
	m := r.m

	// packet
	var sink uint64
	m["packet.flowhash_ns"], _ = r.probe("probe.packet.flowhash", d, probeBatch, 0, func(i int) {
		sink += r.pkt(i).Key().Canonical().Hash()
	})
	buf := make([]byte, 128)
	m["packet.marshal_ns"], _ = r.probe("probe.packet.marshal", d, probeBatch, 0, func(i int) {
		n, _ := r.pkt(i).Marshal(buf) // buf holds any header; payload bytes are never written
		sink += uint64(n)
	})
	arena := packet.NewArena(true)
	m["packet.arena_getput_ns"], _ = r.probe("probe.packet.arena_getput", d, probeBatch, 0, func(int) {
		arena.Put(arena.Get())
	})

	// trace
	cfg := r.w.traceConfig(r.opt.seed, r.opt.flows)
	perGen, _ := r.probe("probe.trace.generate", d, 1, 0, func(int) {
		sink += uint64(trace.Generate(cfg).Len())
	})
	m["trace.generate_ns_per_pkt"] = perGen / float64(len(r.tr.Events))

	// livenet, then the same three loops across two loopback nodes
	live := livenet.New(livenet.Config{Seed: r.opt.seed})
	echoServer(live)
	m["livenet.send_recv_ns"] = r.pingPong(live, "probe.livenet.send_recv", d)
	m["livenet.sendburst32_ns_per_msg"], m["livenet.allocs_per_msg"] = r.burstProbe(live, "probe.livenet.sendburst32", d)
	m["livenet.call_rtt_ns"] = r.callProbe(live, "probe.livenet.call", d)
	live.Shutdown()

	cluster, err := netnet.NewCluster(netnet.ClusterConfig{Seed: r.opt.seed, Nodes: []transport.NodeSpec{
		{Name: "a", Endpoints: []string{"tx"}}, {Name: "b", Endpoints: []string{"rx"}}}})
	if err != nil {
		r.problem("netnet probe: %v", err)
	} else {
		echoServer(cluster)
		m["netnet.burst32_ns_per_msg"], m["netnet.allocs_per_msg"] = r.burstProbe(cluster, "probe.netnet.burst32", d)
		m["netnet.call_rtt_ns"] = r.callProbe(cluster, "probe.netnet.call", d)
		cluster.Shutdown()
	}

	// transport wire codec
	pm := runtime.PacketMsg{Pkt: r.pkt(0), SentAt: 1, InjectedAt: 1}
	pmBytes, _ := transport.EncodePayload(pm)
	var encAllocs, decAllocs float64
	m["transport.wire_enc_ns.packetmsg"], encAllocs = r.probe("probe.transport.wire_enc.packetmsg", d, probeBatch, 0, func(i int) {
		pm.Pkt = r.pkt(i)
		b, _ := transport.EncodePayload(pm)
		sink += uint64(len(b))
	})
	m["transport.wire_dec_ns.packetmsg"], decAllocs = r.probe("probe.transport.wire_dec.packetmsg", d, probeBatch, 0, func(int) {
		if _, err := transport.DecodePayload(pmBytes); err != nil {
			sink++
		}
	})
	m["transport.wire_allocs_per_msg"] = encAllocs + decAllocs
	batchMsg := store.AsyncBatchMsg{Ops: make([]store.AsyncOp, burstLen)}
	for i := range batchMsg.Ops {
		batchMsg.Ops[i] = store.AsyncOp{Seq: uint64(i + 1), From: "v1.i1", Req: &store.Request{
			Op: store.OpIncr, Key: store.Key{Vertex: 1, Obj: 2, Sub: uint64(i % lbBackends)},
			Arg: store.IntVal(1), Clock: uint64(i + 1), Instance: 1}}
	}
	batchBytes, _ := transport.EncodePayload(batchMsg)
	m["transport.wire_enc_ns.asyncbatch"], _ = r.probe("probe.transport.wire_enc.asyncbatch", d, probeBatch, 0, func(int) {
		b, _ := transport.EncodePayload(batchMsg)
		sink += uint64(len(b))
	})
	m["transport.wire_dec_ns.asyncbatch"], _ = r.probe("probe.transport.wire_dec.asyncbatch", d, probeBatch, 0, func(int) {
		if _, err := transport.DecodePayload(batchBytes); err != nil {
			sink++
		}
	})

	// store engine, keyed by the workload's flows
	eng := store.NewEngine(16)
	key := func(i int) store.Key {
		return store.Key{Vertex: 1, Obj: 2, Sub: r.pkt(i).Key().Canonical().Hash()}
	}
	for _, op := range []struct {
		name string
		op   store.Op
	}{{"set", store.OpSet}, {"incr", store.OpIncr}, {"get", store.OpGet}} {
		m["store.engine_apply_ns."+op.name], _ = r.probe("probe.store.engine_apply."+op.name, d, probeBatch, 0, func(i int) {
			req := store.Request{Op: op.op, Key: key(i), Arg: store.IntVal(1)}
			if op.op.Mutates() {
				req.Clock = uint64(i + 1)
			}
			eng.Apply(&req)
			if req.Clock != 0 {
				eng.PruneClock(req.Clock)
			}
		})
	}
	r.storeClientProbes(d)

	// nf logic alone, on NF-local state
	for _, c := range []struct {
		name string
		nf   nf.NF
		seed func(nf.Seeder)
	}{
		{"nat", nfnat.New(), nfnat.New().SeedPorts},
		{"portscan", nfps.New(), nil},
		{"lb", nflb.New(lbBackends), nflb.New(lbBackends).SeedServers},
	} {
		ls := nf.NewLocalState(1, r.opt.seed)
		ctx := nf.NewCtx(nil, ls, nil)
		if c.seed != nil {
			c.seed(func(req store.Request) { ls.UpdateBlocking(ctx, req) })
		}
		m["nf.process_ns."+c.name], _ = r.probe("probe.nf.process."+c.name, d, probeBatch, 0, func(i int) {
			ctx.ResetPacket(uint64(i+1), uint64(i+1))
			sink += uint64(len(c.nf.Process(ctx, r.pkt(i))))
		})
	}

	r.simLap()
	if sink == 0 {
		fmt.Fprintln(r.out, "  probes: no work observed")
	}
}

// echoServer is the probes' peer proc "rx": it returns plain messages to
// "tx", recycles packet bursts and acknowledges each full burst with one
// token, and answers calls.
func echoServer(net transport.Transport) {
	ep := net.Endpoint("rx")
	arena := packet.NewArena(true)
	net.Spawn("rx", func(p transport.Proc) {
		got := 0
		for {
			msg := ep.Recv(p)
			switch pl := msg.Payload.(type) {
			case runtime.PacketMsg:
				arena.Put(pl.Pkt)
				if got++; got == burstLen {
					got = 0
					net.Send(transport.Message{From: "rx", To: "tx", Payload: burstLen, Size: 8})
				}
			case transport.Call:
				pl.Reply(pl.Body(), 8)
			default:
				net.Send(transport.Message{From: "rx", To: "tx", Payload: pl, Size: msg.Size})
			}
		}
	})
}

// pingPong bounces one message between two procs; half a round trip is
// one send, one wake and one receive.
func (r *run) pingPong(net transport.Transport, name string, d time.Duration) (ns float64) {
	ep := net.Endpoint("tx")
	onProc(net, "tx", func(p transport.Proc) {
		rtt, _ := r.probe(name, d, probeBatch, 0, func(i int) {
			net.Send(transport.Message{From: "tx", To: "rx", Payload: i & 0xff, Size: 8})
			ep.Recv(p)
		})
		ns = rtt / 2
	})
	return ns
}

// burstProbe sends bursts of 32 arena-backed PacketMsg to rx and waits
// for its token after each, so the mailbox never grows.
func (r *run) burstProbe(net transport.Transport, name string, d time.Duration) (nsPerMsg, allocsPerMsg float64) {
	ep := net.Endpoint("tx")
	arena := packet.NewArena(true)
	msgs := make([]transport.Message, burstLen)
	onProc(net, "tx", func(p transport.Proc) {
		ns, allocs := r.probe(name, d, probeBatch/burstLen, 0, func(i int) {
			now := p.Now()
			for j := range msgs {
				pkt := arena.Get()
				*pkt = *r.pkt(i*burstLen + j)
				msgs[j] = transport.Message{From: "tx", To: "rx",
					Payload: runtime.PacketMsg{Pkt: pkt, SentAt: now, InjectedAt: now}, Size: pkt.WireLen()}
			}
			transport.SendBurst(net, msgs)
			ep.Recv(p)
		})
		nsPerMsg, allocsPerMsg = ns/burstLen, allocs/burstLen
	})
	return nsPerMsg, allocsPerMsg
}

// callProbe times Call round trips from tx to rx.
func (r *run) callProbe(net transport.Transport, name string, d time.Duration) (ns float64) {
	onProc(net, "tx", func(p transport.Proc) {
		ns, _ = r.probe(name, d, probeBatch, 0, func(i int) {
			net.Call(p, "tx", "rx", i&0xff, 8, time.Second)
		})
	})
	return ns
}

// storeClientProbes times the client library against a Server on livenet:
// the +NA path as an instance drives it (32 non-blocking increments over
// the balancer's eight counters, FlushBurst, acks pumped from the
// endpoint) and the EO path (one blocking increment per call).
func (r *run) storeClientProbes(d time.Duration) {
	net := livenet.New(livenet.Config{Seed: r.opt.seed})
	defer net.Shutdown()
	decls := []store.ObjDecl{{ID: 1, Name: "bytes", Scope: store.ScopeGlobal, Pattern: store.WriteMostly}}
	srv := store.NewServer(net, "store0", store.ServerConfig{OpService: -1})
	srv.Declare(1, decls)
	srv.Start()
	client := func(ep string, inst uint16, mode store.Mode) *store.Client {
		return store.NewClient(net, store.ClientConfig{
			Vertex: 1, Instance: inst, Endpoint: ep, Store: "store0", Mode: mode, Decls: decls,
			RPCTimeout: 5 * time.Second, AckTimeout: 100 * time.Millisecond,
			CoalesceWindow: time.Millisecond, BurstRPC: true,
		})
	}
	incr := func(i int) store.Request {
		return store.Request{Op: store.OpIncr, Key: store.Key{Vertex: 1, Obj: 1, Sub: uint64(i % lbBackends)},
			Arg: store.IntVal(1), Clock: uint64(i/2 + 1)}
	}
	// The WAL and the server's dedup sets grow per op, so both loops are
	// capped in calls as well as in time.
	const maxPending = 4096
	na := client("na", 1, store.ModeEOCNA)
	ep := net.Endpoint("na")
	onProc(net, "na", func(p transport.Proc) {
		ns, _ := r.probe("probe.store.client_async", d, probeBatch/burstLen, 8192, func(i int) {
			for j := 0; j < burstLen; j++ {
				na.Update(p, incr(i*burstLen+j))
			}
			na.FlushBurst()
			for ep.Len() > 0 || na.PendingAcks() > maxPending {
				na.HandleMessage(ep.Recv(p).Payload)
			}
		})
		r.m["store.client_async_ns_per_op"] = ns / burstLen
	})
	eo := client("eo", 2, store.ModeEO)
	onProc(net, "eo", func(p transport.Proc) {
		r.m["store.client_blocking_rtt_ns"], _ = r.probe("probe.store.client_blocking", d, probeBatch, 1<<17, func(i int) {
			eo.UpdateBlocking(p, incr(i))
		})
	})
}

// simLap runs a quarter of the workload's trace through the same chain on
// the DES: the wall-clock price tier-1 pays for an edit to shared code,
// and the row no live-only optimisation should move.
func (r *run) simLap() {
	id := r.rec.begin("probe.simnet.lap")
	defer r.rec.end(id)
	cfg := r.w.traceConfig(r.opt.seed, r.opt.flows)
	cfg.Flows /= 4
	tr := trace.Generate(cfg)
	tr.Pace(2_000_000_000)
	ch := r.w.newChain(r.opt.seed, 1, runtime.SubstrateSim)
	ch.Start()
	seedState(ch)
	start := time.Now()
	ch.RunTrace(tr, 10*time.Millisecond)
	r.m["simnet.wall_us_per_pkt"] = float64(time.Since(start)) / 1e3 / float64(tr.Len())
	if ch.Root.Injected != uint64(tr.Len()) {
		r.problem("simnet lap: root stamped %d of %d packets", ch.Root.Injected, tr.Len())
	}
}

// budget adds up what the ladder says one packet costs and reports the
// share of the measured CPU per packet it explains. Rows are nanoseconds
// per packet: a probe's cost times how often the run called that layer.
func (r *run) budget() {
	m := r.m
	nfShare := 1.0
	if r.w.fork {
		nfShare = 2.0 / 3 // each class crosses two of the three vertices
	}
	storeOps := m["store.blocking_ops_per_pkt"] + m["store.async_ops_per_pkt"]
	applyNs := (m["store.engine_apply_ns.incr"] + m["store.engine_apply_ns.get"] + m["store.engine_apply_ns.set"]) / 3
	rows := []struct {
		name string
		ns   float64
	}{
		{"harness inject", m["runtime.inject_ns_per_pkt"]},
		{"root ingest (proc.root p50)", m["runtime.root_proc_p50_ns"]},
		{"instances (proc.* p50, on-path share)", nfShare * (m["runtime.proc_p50_ns.nat"] + m["runtime.proc_p50_ns.ids"] + m["runtime.proc_p50_ns.lb"])},
		{"mailbox hops (msgs x sendburst32)", m["livenet.msgs_per_pkt"] * m["livenet.sendburst32_ns_per_msg"]},
		{"store engine (ops x apply)", storeOps * applyNs},
		{"remote hops (msgs x (enc+dec+burst32))", m["netnet.remote_msgs_per_pkt"] *
			(m["transport.wire_enc_ns.packetmsg"] + m["transport.wire_dec_ns.packetmsg"] + m["netnet.burst32_ns_per_msg"])},
	}
	var sum float64
	fmt.Fprintln(r.out, "  per-packet budget:")
	for _, row := range rows {
		fmt.Fprintf(r.out, "    %-44s %10.1f ns\n", row.name, row.ns)
		sum += row.ns
	}
	// CPU as measured, not as restated: the probes ran on the same box.
	cpuNs := m["cpu_us_per_pkt"] / m["harness.box_speed"] * 1e3
	fmt.Fprintf(r.out, "    %-44s %10.1f ns of %.1f ns CPU per packet\n", "sum", sum, cpuNs)
	if cpuNs > 0 {
		m["budget.coverage"] = sum / cpuNs
	} else {
		m["budget.coverage"] = 0
	}
}
