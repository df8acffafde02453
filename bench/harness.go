package main

import (
	"fmt"
	"io"
	goruntime "runtime"
	"syscall"
	"time"

	"chc/internal/runtime"
	"chc/internal/trace"
	"chc/internal/transport"
)

const (
	burstLen      = 32                      // packets per SendBurst, the live default
	defaultWindow = 256                     // closed-loop cap on packets in flight
	setupsPerRun  = 21                      // set-ups timed per run; the median is setup_s
	echoTimeout   = 5 * time.Second         // a root that stays silent this long fails the run
	drainBudget   = 30 * time.Second        // AwaitDrained budget after every phase
	sliceLen      = 250 * time.Millisecond  // closed-loop accounting slice (and span on/off period)
	openEchoEvery = 3100 * time.Microsecond // open-loop root_echo cadence, off any burst period
	latWindows    = 10                      // open-loop latency is the median over this many windows
	fullWindowNap = 100 * time.Microsecond  // closed loop: pause before asking the root again when the window is full
	maxLateFrac   = 0.02                    // open loop is invalid below 98 % of the offered rate
	// ... or when the root holds more than 5 % of one second's packets. What
	// counts is the median it held over the last quarter of the phase: a
	// root sweep or a hiccup of the box piles packets up for a fraction of a
	// second, a chain that cannot keep up never gets back down.
	maxBacklogSec = 0.05
)

// options are the knobs of one run. The gated runs set only seed, seconds
// and trace; the rest are the reproducer flags.
type options struct {
	seed    int64
	seconds int
	trace   bool
	window  int
	shards  int
	dur     time.Duration // phase length override (reproducer, smoke test)
	rate    int           // open-loop rate override
	flows   int           // flows in the trace (0 = the frozen 4000)
	spans   string        // where the traced pass writes its spans
}

// phase is the length of each of the two measured phases. The traced pass
// halves them and gives the other half of --seconds to the probes.
func (o options) phase() time.Duration {
	if o.dur > 0 {
		return o.dur
	}
	d := time.Duration(o.seconds) * time.Second / 2
	if o.trace {
		d /= 2
	}
	return d
}

// result is one run as -out stores it; the last line of standard output
// is its correct/attempted/failed/metrics subset.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     int              `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Problems  []string         `json:"problems,omitempty"`
	// Measured is everything the pass measured, by metric name: the other
	// pass's metrics at this pass's phase lengths, for diagnosis only.
	Measured metricSet `json:"measured"`
}

// run is the state of one workload run: the chain under test, the
// injector feeding it and the harness-side timings.
type run struct {
	w   *workload
	opt options
	rec *recorder
	out io.Writer

	ch  *runtime.Chain
	tr  *trace.Trace
	net transport.Transport

	pos    int                 // next trace event
	msgs   []transport.Message // the burst being built
	sent   uint64              // packets handed to SendBurst
	injNs  time.Duration       // time spent in inject
	last   runtime.RootStats   // latest root echo
	echoNs samples
	lateNs samples
	heldNs samples // open loop: packets the root holds, as time at the offered rate

	problems []string
	failed   uint64
	notSent  uint64
	m        metricSet
	speed    *speedometer
}

func (r *run) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// setup generates the trace and brings a chain up to the point where it
// can take traffic. This is what setup_s times.
func (r *run) setup() time.Duration {
	start := time.Now()
	sp := r.rec.begin("setup")
	id := r.rec.begin("trace.generate")
	r.tr = trace.Generate(r.w.traceConfig(r.opt.seed, r.opt.flows))
	r.rec.end(id)
	id = r.rec.begin("chain.new")
	sub := runtime.SubstrateLive
	if r.w.net {
		sub = runtime.SubstrateNet
	}
	r.ch = r.w.newChain(r.opt.seed, r.opt.shards, sub)
	r.rec.end(id)
	id = r.rec.begin("chain.start")
	r.ch.Start()
	r.rec.end(id)
	id = r.rec.begin("chain.seed")
	seedState(r.ch)
	r.rec.end(id)
	r.rec.end(sp)
	r.net = r.ch.Net()
	return time.Since(start)
}

// inject sends one burst of arena-backed copies of the next trace packets
// to the root. The trace is cycled; the chain only ever sees generated
// packets.
func (r *run) inject() {
	id := r.rec.beginFine("inject")
	t0 := time.Now()
	arena := r.ch.Arena()
	now := r.net.Now()
	for i := range r.msgs {
		pkt := arena.Get()
		*pkt = *r.tr.Events[r.pos].Pkt
		if r.pos++; r.pos == len(r.tr.Events) {
			r.pos = 0
		}
		r.msgs[i] = transport.Message{
			From:    "driver",
			To:      r.ch.Root.Endpoint,
			Payload: runtime.PacketMsg{Pkt: pkt, SentAt: now, InjectedAt: now},
			Size:    pkt.WireLen(),
		}
	}
	transport.SendBurst(r.net, r.msgs)
	r.sent += burstLen
	r.injNs += time.Since(t0)
	r.rec.end(id)
}

// echo asks the root for its counters through its own mailbox. The query
// queues behind every packet already injected, so the reply is both the
// completion count and the back-pressure barrier, and its round trip is
// the time work waits for the root.
func (r *run) echo() bool {
	id := r.rec.beginFine("root_echo")
	t0 := time.Now()
	st, ok := r.ch.QueryRootStats(echoTimeout)
	r.echoNs.add(time.Since(t0))
	r.rec.end(id)
	if ok {
		r.last = st
	}
	return ok
}

// completed is how many injected packets the root has finished with.
func (r *run) completed() uint64 { return r.last.Deleted + r.last.Dropped }

// drain waits until the root has deleted everything it stamped.
func (r *run) drain(what string) time.Duration {
	id := r.rec.begin("drain")
	t0 := time.Now()
	ok := r.ch.AwaitDrained(drainBudget)
	d := time.Since(t0)
	r.rec.end(id)
	if !ok {
		r.problem("%s: not drained after %v", what, drainBudget)
	}
	if !r.echo() {
		r.problem("%s: root did not answer within %v", what, echoTimeout)
	}
	return d
}

// slice is the closed loop's accounting unit: completions and wall time
// observed while it was current, and whether per-burst spans were on.
type slice struct {
	done   uint64
	dur    time.Duration
	traced bool
}

func slicePPS(ss []slice) float64 {
	var done uint64
	var dur time.Duration
	for _, s := range ss {
		done += s.done
		dur += s.dur
	}
	if dur <= 0 {
		return 0
	}
	return float64(done) / dur.Seconds()
}

// closedLoop keeps at most window packets in flight for d (or, when
// packets > 0, until that many have been injected) and returns the
// completions it saw, the time they took and the per-slice account.
func (r *run) closedLoop(d time.Duration, packets uint64) (done uint64, elapsed time.Duration, slices []slice, ok bool) {
	if !r.echo() {
		return 0, 0, nil, false
	}
	window := uint64(r.opt.window)
	base, sent0 := r.completed(), r.sent
	start := time.Now()
	prevDone, prevAt := base, time.Duration(0)
	for {
		room := false
		for r.sent-r.completed()+burstLen <= window && (packets == 0 || r.sent-sent0 < packets) {
			r.inject()
			room = true
		}
		if !room {
			time.Sleep(fullWindowNap)
		}
		if !r.echo() {
			return 0, 0, nil, false
		}
		r.speed.tick()
		now := time.Since(start)
		idx := int(now / sliceLen)
		for len(slices) <= idx {
			slices = append(slices, slice{traced: len(slices)%2 == 1})
		}
		slices[idx].done += r.completed() - prevDone
		slices[idx].dur += now - prevAt
		prevDone, prevAt = r.completed(), now
		r.rec.setFine(slices[idx].traced)
		if packets > 0 {
			if r.sent-sent0 >= packets {
				break
			}
		} else if now >= d {
			break
		}
	}
	r.rec.setFine(true)
	return prevDone - base, prevAt, slices, true
}

// openLoop sends a burst every burstLen/rate seconds for d, whether or
// not earlier packets have completed, and records how late each burst
// left. Between bursts it asks the root every openEchoEvery how many
// packets it holds; divided by the rate that is the time the backlog
// represents (Little's law), the only latency a caller can observe from
// outside on a substrate that does not carry the ingress stamp. A burst
// still unsent maxLateFrac past the end of the phase is given up and
// counted as not sent.
func (r *run) openLoop(d time.Duration, rate int) (due uint64, ok bool) {
	interval := time.Duration(float64(burstLen) / float64(rate) * float64(time.Second))
	perPkt := time.Second / time.Duration(rate)
	n := int(d / interval)
	giveUp := d + time.Duration(float64(d)*maxLateFrac)
	start := time.Now()
	nextEcho := openEchoEvery
	k := 0
	for k < n {
		at := time.Duration(k) * interval
		now := time.Since(start)
		if now > giveUp {
			break
		}
		if next := min(at, nextEcho); now < next {
			time.Sleep(next - now)
			now = time.Since(start)
		}
		if now >= at {
			r.lateNs.add(now - at)
			r.inject()
			k++
			continue
		}
		if !r.echo() {
			return 0, false
		}
		r.speed.tick()
		r.heldNs.add(time.Duration(r.last.Injected-r.completed()) * perPkt)
		nextEcho += openEchoEvery
	}
	r.notSent += uint64(n-k) * burstLen
	return uint64(n) * burstLen, true
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runWorkload performs one run of w: 21 set-ups, a warm-up lap, the
// open-loop phase, the closed-loop phase, the output checks and, in the
// traced pass, the per-layer probes.
func runWorkload(w *workload, opt options, out io.Writer) *result {
	r := &run{w: w, opt: opt, out: out, msgs: make([]transport.Message, burstLen), m: metricSet{}, speed: newSpeedometer()}
	if opt.trace {
		r.rec = newRecorder()
	}
	rate := w.ratePPS
	if opt.rate > 0 {
		rate = opt.rate
	}
	phase := opt.phase()
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, opt.seed, w.substrate())
	fmt.Fprintf(out, "  phases %v open loop at %d pkts/s, then %v closed loop with %d in flight; %d store shard(s); traced=%v\n",
		phase, rate, phase, opt.window, opt.shards, opt.trace)

	top := r.rec.begin("workload")

	// Set-up, several times so setup_s is a median; the last chain is the
	// one measured.
	r.speed.settle()
	var setupS []float64
	for k := 0; k < setupsPerRun; k++ {
		if r.ch != nil {
			r.ch.Stop()
		}
		r.speed.sample()
		setupS = append(setupS, r.setup().Seconds())
	}
	r.speed.sample()
	r.m["setup_s"] = median(setupS)
	r.atSpeed(r.speed.read(), "setup_s")

	r.measure(phase, rate)

	// Stop before reading: Sink, Root and Metrics belong to their procs
	// until the transport has joined them.
	r.ch.HarvestClientStats()
	netStats := r.ch.NetStats()
	msgs := r.linkMessages()
	r.ch.Stop()
	r.check()
	if opt.trace {
		r.inRunLayers(netStats, msgs)
		runProbes(r, 2*phase)
		r.budget()
	}
	r.rec.end(top)

	res := &result{
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds,
		Attempted: r.sent + r.notSent, Failed: r.failed, Measured: r.m,
	}
	var missing []string
	if opt.trace {
		res.Trace = 1
		res.Metrics, missing = r.m.pick(perLayer)
	} else {
		res.Metrics, missing = r.m.pick(endToEnd)
	}
	for _, name := range missing {
		r.problem("metric %s was not measured", name)
	}
	res.Problems = r.problems
	res.Correct = len(r.problems) == 0 && r.failed == 0
	r.print(res)
	if r.rec != nil && opt.spans != "" {
		if err := r.rec.write(opt.spans); err != nil {
			fmt.Fprintf(out, "  %v\n", err)
		} else {
			fmt.Fprintf(out, "  %d spans written to %s\n", len(r.rec.spans), opt.spans)
		}
	}
	return res
}

// measure drives the chain through warm-up, open loop and closed loop.
// The speedometer ticks all through both phases; each phase's timings are
// restated at the mean speed the box had during it.
func (r *run) measure(phase time.Duration, rate int) {
	// Warm-up: one lap of the trace, a fixed packet count so that what the
	// chain retains when heap_mb is read does not depend on its speed.
	id := r.rec.begin("warmup")
	lap := (uint64(len(r.tr.Events)) + burstLen - 1) / burstLen * burstLen
	_, _, _, ok := r.closedLoop(0, lap)
	r.rec.end(id)
	if !ok {
		r.problem("warm-up: root did not answer within %v", echoTimeout)
		return
	}
	r.drain("warm-up")

	r.speed.read()
	if !r.openPhase(phase, rate) {
		return
	}
	r.atSpeed(r.speed.read(), "lat_p50_us")
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	r.m["heap_mb"] = float64(ms.HeapInuse) / (1 << 20)

	r.speed.read()
	if !r.closedPhase(phase) {
		return
	}
	r.m["harness.box_speed"] = r.speed.read()
	r.atSpeed(r.m["harness.box_speed"], "chain_pps", "cpu_us_per_pkt")
}

// atSpeed restates the named timings, measured while the box ran at speed
// (1 = the reference box), as the reference box would have measured them:
// durations scale with speed, rates against it.
func (r *run) atSpeed(speed float64, names ...string) {
	for _, name := range names {
		raw := r.m[name]
		if name == "chain_pps" {
			r.m[name] = raw / speed
		} else {
			r.m[name] = raw * speed
		}
		fmt.Fprintf(r.out, "  %s: measured %.4f with the box at %.3f of reference speed\n", name, raw, speed)
	}
}

// openPhase runs the fixed-rate phase and fills the latency metrics.
func (r *run) openPhase(phase time.Duration, rate int) bool {
	chainLat := r.ch.Metrics.Get("total.chain")
	id := r.rec.begin("open_loop")
	n0 := chainLat.N()
	sent0 := r.sent
	due, ok := r.openLoop(phase, rate)
	r.rec.end(id)
	if !ok {
		r.problem("open loop: root did not answer within %v", echoTimeout)
		return false
	}
	r.drain("open loop")
	lat := chainLat.Slice(n0, chainLat.N())
	r.m["runtime.hold_mean_us"] = r.heldNs.mean() / 1e3
	if uint64(len(lat))*2 >= r.sent-sent0 {
		r.m["lat_p50_us"] = windowedQuantile(lat, 0.50)
		r.m["runtime.lat_p90_us"] = windowedQuantile(lat, 0.90)
		r.m["runtime.lat_p99_us"] = windowedQuantile(lat, 0.99)
	} else {
		// The wire codec does not carry Packet.IngressNs, so a packet that
		// crossed a socket reaches the sink unstamped and total.chain stays
		// empty. What remains observable from outside is how long the root
		// holds a packet (stamp to delete): by Little's law the mean of
		// held/rate is the mean of that time.
		r.m["lat_p50_us"] = r.heldNs.windowedMean() / 1e3
		r.m["runtime.lat_p90_us"] = r.heldNs.quantile(0.90) / 1e3
		r.m["runtime.lat_p99_us"] = r.heldNs.quantile(0.99) / 1e3
		fmt.Fprintf(r.out, "  open loop: the sink saw %d stamped packets of %d, so lat_* is the root's hold time (Injected-Deleted over the rate)\n",
			len(lat), r.sent-sent0)
	}
	r.m["harness.gen_late_p99_us"] = r.lateNs.quantile(0.99) / 1e3
	r.m["harness.achieved_rate_frac"] = ratio(r.sent-sent0, due)
	backlog := r.heldNs[len(r.heldNs)*3/4:].quantile(0.5) / 1e9 // seconds of offered traffic
	fmt.Fprintf(r.out, "  open loop: %d latency samples (%d per window), %d of %d packets sent, root held a median of %.1f ms of traffic over the last quarter\n",
		len(lat), len(lat)/latWindows, r.sent-sent0, due, backlog*1e3)
	if r.notSent > 0 {
		r.failed += r.notSent
		r.problem("open loop: invalid, generator sent %d of %d packets (below %.0f %% of %d pkts/s)",
			r.sent-sent0, due, 100*(1-maxLateFrac), rate)
	}
	if backlog > maxBacklogSec {
		held := uint64(backlog * float64(rate))
		r.problem("open loop: invalid, the root held %d packets (%.0f ms of traffic, limit %.0f ms) over the last quarter: the chain cannot sustain %d pkts/s",
			held, backlog*1e3, maxBacklogSec*1e3, rate)
		r.failed += held
	}
	return true
}

// closedPhase runs the windowed phase: capacity, CPU and allocations per
// completed packet.
func (r *run) closedPhase(phase time.Duration) bool {
	chainLat := r.ch.Metrics.Get("total.chain")
	id := r.rec.begin("closed_loop")
	n1 := chainLat.N()
	r.echoNs, r.injNs = nil, 0
	sent0 := r.sent
	cpu0, mal0 := cpuTime(), mallocs()
	done, elapsed, slices, ok := r.closedLoop(phase, 0)
	cpu1, mal1 := cpuTime(), mallocs()
	r.rec.end(id)
	if !ok || done == 0 {
		r.problem("closed loop: root did not answer within %v", echoTimeout)
		return false
	}
	r.m["runtime.drain_ms"] = float64(r.drain("closed loop")) / 1e6
	r.m["chain_pps"] = float64(done) / elapsed.Seconds()
	r.m["cpu_us_per_pkt"] = float64(cpu1-cpu0) / 1e3 / float64(done)
	r.m["allocs_per_pkt"] = float64(mal1-mal0) / float64(done)
	r.m["runtime.inject_ns_per_pkt"] = float64(r.injNs) / float64(r.sent-sent0)
	r.m["runtime.root_echo_p50_us"] = r.echoNs.quantile(0.50) / 1e3
	r.m["runtime.root_echo_p99_us"] = r.echoNs.quantile(0.99) / 1e3
	r.m["runtime.lat_closed_p50_us"] = windowedQuantile(chainLat.Slice(n1, chainLat.N()), 0.50)
	q := max(1, len(slices)/4)
	r.m["runtime.pps_last_over_first"] = slicePPS(slices[len(slices)-q:]) / slicePPS(slices[:q])
	var on, off []slice
	for _, s := range slices {
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	r.m["harness.trace_overhead_frac"] = 0
	if r.rec != nil && len(on) > 0 {
		r.m["harness.trace_overhead_frac"] = 1 - slicePPS(on)/slicePPS(off)
	}
	return true
}

// linkMessages sums LinkStats' sent counts over every pair of the
// chain's endpoints: how many transport messages the run moved.
func (r *run) linkMessages() uint64 {
	eps := []string{"driver", "framework", "stats-query", r.ch.Root.Endpoint, runtime.SinkEndpoint}
	for i := range r.ch.Stores {
		eps = append(eps, runtime.ShardEndpoint(i))
	}
	for _, v := range r.ch.Vertices {
		for _, in := range v.Instances {
			eps = append(eps, in.Endpoint)
		}
	}
	var total uint64
	for _, from := range eps {
		for _, to := range eps {
			sent, _, _ := r.net.LinkStats(from, to)
			total += sent
		}
	}
	return total
}

// check verifies the chain's outputs once it has stopped: conservation at
// the root, an empty log, no duplicate at the sink, and the same per
// traffic class.
func (r *run) check() {
	root, sink := r.ch.Root, r.ch.Sink
	if root.Injected != r.sent {
		r.problem("root stamped %d of %d packets sent", root.Injected, r.sent)
		r.failed += r.sent - min(root.Injected, r.sent)
	}
	if root.Injected != root.Deleted+root.Dropped {
		r.problem("conservation: injected=%d deleted=%d dropped=%d", root.Injected, root.Deleted, root.Dropped)
		r.failed += root.Injected - min(root.Deleted+root.Dropped, root.Injected)
	}
	if root.Dropped > 0 {
		r.problem("root dropped %d packets", root.Dropped)
		r.failed += root.Dropped
	}
	if n := root.LogSize(); n != 0 {
		r.problem("root log holds %d packets after drain", n)
	}
	if sink.Duplicates > 0 {
		r.problem("sink saw %d duplicates", sink.Duplicates)
		r.failed += sink.Duplicates
	}
	if sink.Received != root.Injected {
		r.problem("sink received %d of %d packets", sink.Received, root.Injected)
	}
	for ci, name := range r.ch.Classes() {
		in, del, got := root.InjectedByClass[ci], root.DeletedByClass[ci], sink.ReceivedByClass[uint8(ci)]
		if in != del || in != got {
			r.problem("class %s: injected=%d deleted=%d sink=%d", name, in, del, got)
		}
	}
	fmt.Fprintf(r.out, "  outputs: injected=%d deleted=%d dropped=%d log=%d sink=%d duplicates=%d replay_filtered=%d\n",
		root.Injected, root.Deleted, root.Dropped, root.LogSize(), sink.Received, sink.Duplicates, sink.ReplayFiltered)
}

// print lists every metric of the pass by name with its unit, then the
// problems, then (traced pass) the span roll-up.
func (r *run) print(res *result) {
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(r.out, "  %-36s %16.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(r.out, "  attempted=%d failed=%d fail_frac=%g correct=%v\n",
		res.Attempted, res.Failed, ratio(res.Failed, res.Attempted), res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(r.out, "  PROBLEM: %s\n", p)
	}
	if r.rec != nil {
		r.rec.printTotals(r.out)
	}
}
