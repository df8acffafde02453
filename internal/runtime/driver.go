package runtime

import (
	"time"

	"chc/internal/trace"
	"chc/internal/transport"
)

// RunTrace injects every trace event at its arrival time and drives the
// chain until the last arrival plus settle. On the DES every event is
// pre-scheduled and the scheduler runs to the horizon — byte-identical to
// the historical behavior, and the path the golden parity tests pin. In
// live mode a pacer process injects in real time (coarse catch-up pacing:
// it sleeps only when comfortably ahead, then injects every due event),
// and the call blocks until the pacer finishes. Returns the covered
// duration on the chain's clock.
func (c *Chain) RunTrace(tr *trace.Trace, settle time.Duration) time.Duration {
	if c.live() {
		return c.runTraceLive(tr, settle)
	}
	base := c.sim.Now()
	for idx := range tr.Events {
		ev := tr.Events[idx]
		c.sim.ScheduleAt(base+ev.At, func() {
			c.Inject(ev.Pkt, c.sim.Now())
		})
	}
	horizon := base.Add(tr.Duration()).Add(settle)
	c.sim.RunUntil(horizon)
	c.HarvestClientStats()
	return time.Duration(horizon - base)
}

// pacerSlack is how far ahead of schedule the live pacer must be before
// it sleeps: below this it busy-injects, keeping bursts bounded without
// paying timer-granularity latency per packet.
const pacerSlack = 200 * time.Microsecond

// burstFlushDeadline bounds how long the pacer holds an accumulating burst
// before it flushes a partial one, so batching never adds unbounded
// latency at low offered load.
const burstFlushDeadline = 100 * time.Microsecond

func (c *Chain) runTraceLive(tr *trace.Trace, settle time.Duration) time.Duration {
	done := c.tr.NewSignal()
	base := c.tr.Now()
	bs := c.burstSize()
	c.tr.Spawn("driver.pacer", func(p transport.Proc) {
		// Burst accumulation: due events batch into one SendBurst toward
		// the root (one mailbox lock + wake per burst). Packets are copied
		// into arena buffers so recycling never touches the trace's own
		// packets (traces are reused across runs). The flush deadline
		// bounds how long an accumulated packet can wait when the offered
		// rate is low.
		var msgs []transport.Message
		var burstStart transport.Time
		flush := func() {
			if len(msgs) == 0 {
				return
			}
			transport.SendBurst(c.tr, msgs)
			for i := range msgs {
				msgs[i] = transport.Message{}
			}
			msgs = msgs[:0]
		}
		for idx := range tr.Events {
			ev := tr.Events[idx]
			target := base + ev.At
			if d := target.Sub(p.Now()); d > pacerSlack {
				flush()
				p.Sleep(d)
			}
			pkt := c.arena.Clone(ev.Pkt)
			now := p.Now()
			if len(msgs) == 0 {
				burstStart = now
			}
			pkt.SentNs = int64(now)
			msgs = append(msgs, transport.Message{
				From:    "driver",
				To:      c.Root.Endpoint,
				Payload: pkt,
				Size:    pkt.WireLen(),
			})
			if len(msgs) >= bs || now.Sub(burstStart) > burstFlushDeadline {
				flush()
			}
		}
		flush()
		p.Sleep(settle)
		done.Resolve(nil)
	})
	// Generous real-time budget: the pacer may fall behind the offered
	// rate on a loaded machine; the run still completes.
	c.tr.Drive(done, 4*(time.Duration(tr.Duration())+settle)+30*time.Second)
	c.HarvestClientStats()
	return time.Duration(c.tr.Now() - base)
}

// HarvestClientStats snapshots the client libraries' op statistics into
// Metrics.Counters under "client.*" (set, not accumulated: safe to call
// after every run segment, and safe while live workers run — each
// client's snapshot is taken under its lock).
func (c *Chain) HarvestClientStats() {
	var blocking, async, hits, misses, retrans, flushed, coalesced, batched, burstRPCs uint64
	for _, v := range c.Vertices {
		for _, in := range c.topo.Load().slotsOf(v) {
			cl := in.Client()
			if cl == nil {
				continue
			}
			st := cl.StatsSnapshot()
			blocking += st.BlockingOps
			async += st.AsyncOps
			hits += st.CacheHits
			misses += st.CacheMisses
			retrans += st.Retransmits
			flushed += st.FlushedOps
			coalesced += st.CoalescedOps
			batched += st.BatchedSends
			burstRPCs += st.BurstRPCs
		}
	}
	m := c.Metrics
	m.SetCounter("client.blocking_ops", blocking)
	m.SetCounter("client.async_ops", async)
	m.SetCounter("client.cache_hits", hits)
	m.SetCounter("client.cache_misses", misses)
	m.SetCounter("client.retransmits", retrans)
	m.SetCounter("client.flushed_ops", flushed)
	m.SetCounter("client.coalesced_ops", coalesced)
	m.SetCounter("client.batched_sends", batched)
	m.SetCounter("client.burst_rpcs", burstRPCs)
	m.SetCounter("arena.reuse", c.arena.Reuses())
}

// RunFor drives the chain for a duration (post-trace settling, failure
// windows...): virtual time on the DES, real time in live mode.
func (c *Chain) RunFor(d time.Duration) { c.tr.RunFor(d) }

// ThroughputBps reports an instance's processing rate over an observation
// window: bytes processed divided by elapsed time.
func ThroughputBps(bytes uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / elapsed.Seconds()
}
