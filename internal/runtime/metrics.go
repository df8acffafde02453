package runtime

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/clockset"
	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/transport"
)

// SinkEndpoint is the chain egress endpoint name.
const SinkEndpoint = "sink"

// Sink terminates the chain: it collects outputs, end-to-end latencies, and
// duplicate deliveries (what an end host would observe, §5.4).
type Sink struct {
	chain *Chain

	Received   uint64
	Bytes      uint64
	Duplicates uint64
	// ReplayFiltered counts replay-flagged re-deliveries the egress
	// suppressed: recovery traffic (failover replay, retransmission sweep)
	// may legitimately re-traverse the chain for a packet whose first copy
	// already egressed, and R5 duplicate suppression applies at the egress
	// element like everywhere else — the end host never sees the copy.
	// Duplicates stays what an end host observed: a nonzero value means a
	// NON-replay packet was delivered twice, which is a protocol bug.
	ReplayFiltered uint64
	// ReceivedByClass counts deliveries per traffic class (policy-DAG
	// deployments; linear chains put everything under class 0).
	ReceivedByClass map[uint8]uint64
	seen            clockset.Set
	// latency is the "total.chain" series: root ingress to egress. It is
	// exact on every substrate: chcperf reads its windows through Slice.
	latency *Series
}

// NewSink builds the sink.
func NewSink(c *Chain) *Sink {
	return &Sink{chain: c, ReceivedByClass: make(map[uint8]uint64), latency: c.Metrics.Ordered("total.chain")}
}

// Start spawns the sink process.
func (s *Sink) Start() {
	ep := s.chain.tr.Endpoint(SinkEndpoint)
	s.chain.tr.Spawn(SinkEndpoint, func(p transport.Proc) {
		for {
			pkt, ok := packetOf(ep.Recv(p).Payload)
			if !ok {
				continue
			}
			if s.seen.Has(pkt.Meta.Clock) {
				if pkt.Meta.Flags&packet.MetaReplay != 0 {
					s.ReplayFiltered++
					s.chain.arena.Put(pkt)
					continue
				}
				s.Duplicates++
			}
			s.Received++
			s.Bytes += uint64(pkt.WireLen())
			s.ReceivedByClass[pkt.Meta.Class]++
			s.seen.Add(pkt.Meta.Clock)
			if pkt.IngressNs > 0 {
				s.latency.Add(p.Now().Sub(transport.Time(pkt.IngressNs)))
			}
			// Egress is the packet's final release point: all accounting
			// above read the buffer, nothing retains it past here.
			s.chain.arena.Put(pkt)
		}
	})
}

// Series is a latency series with percentile queries. It keeps samples in
// one of two forms, fixed when its Metrics creates it:
//   - exact: the raw samples in arrival order, optionally with their
//     timestamps (timeline experiments like Fig 9/13), guarded by a mutex
//     and capped at seriesCap samples. Every series on the DES, and the
//     series a creator asks for through Metrics.Ordered on any substrate.
//   - histogram: a fixed-size log-linear histogram (histogram below), for
//     every other series on the live and net substrates. Its memory does
//     not grow with the packets measured.
type Series struct {
	hist *histogram // nil for an exact series

	mu      sync.Mutex
	vals    []time.Duration
	times   []transport.Time
	dropped int
}

// seriesCap bounds an exact series' samples; Dropped counts the rest.
const seriesCap = 4 << 20

// Add records a sample. An exact series past seriesCap drops it and counts
// it in Dropped.
func (s *Series) Add(d time.Duration) { s.add(d, 0, false) }

// AddAt records a timestamped sample. A histogram series keeps no
// timestamps.
func (s *Series) AddAt(at transport.Time, d time.Duration) { s.add(d, at, true) }

func (s *Series) add(d time.Duration, at transport.Time, timed bool) {
	if s.hist != nil {
		s.hist.add(d)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) >= seriesCap {
		s.dropped++
		return
	}
	s.vals = append(s.vals, d)
	if timed {
		s.times = append(s.times, at)
	}
}

// Dropped counts the samples an exact series discarded past seriesCap
// (always 0 for a histogram). Its percentiles describe only the first
// seriesCap samples when this is non-zero.
func (s *Series) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Times returns a copy of the sample timestamps (parallel to Values;
// empty if samples were added without timestamps). Nil for a histogram
// series.
func (s *Series) Times() []transport.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]transport.Time(nil), s.times...)
}

// Slice returns a copy of the samples in [from, to) index range, in
// arrival order. Nil for a histogram series.
func (s *Series) Slice(from, to int) []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if to > len(s.vals) {
		to = len(s.vals)
	}
	if from >= to {
		return nil
	}
	return append([]time.Duration(nil), s.vals[from:to]...)
}

// PercentileOf computes a percentile over an arbitrary sample slice.
func PercentileOf(vals []time.Duration, q float64) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// N returns the sample count (exact in both forms; an exact series does
// not count what it dropped).
func (s *Series) N() int {
	if s.hist != nil {
		return int(s.hist.n())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Percentile returns the q'th percentile (q in [0,100]). On a histogram
// series it is the midpoint of the bucket holding that sample, so within
// 1/128 of it, with negative samples counted as 0.
func (s *Series) Percentile(q float64) time.Duration {
	if s.hist != nil {
		return s.hist.percentile(q)
	}
	s.mu.Lock()
	sorted := append([]time.Duration(nil), s.vals...)
	s.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// Mean returns the average sample (exact in both forms).
func (s *Series) Mean() time.Duration {
	if s.hist != nil {
		n := s.hist.n()
		if n == 0 {
			return 0
		}
		return time.Duration(s.hist.sum.Load() / int64(n))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.vals {
		sum += v
	}
	return sum / time.Duration(len(s.vals))
}

// Values returns a copy of the raw samples (CDF plotting). Nil for a
// histogram series.
func (s *Series) Values() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.vals...)
}

// Histogram geometry (log-linear, as HdrHistogram): a sample below
// 2*histSub ns has a bucket of its own; above that each power of two
// [2^e, 2^(e+1)) splits into histSub buckets of width 2^(e-histSubBits),
// so a bucket spans at most 1/histSub of any value in it. The buckets
// cover every non-negative int64.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// histogram is the fixed-size form of a Series. Writers only increment
// atomics, so concurrent Adds (several instances of one vertex on live)
// take no lock; a reader's counts may trail a concurrent writer's by a
// sample. The bucket array is allocated on the first Add, so a series
// that is created but never fed costs a few words.
type histogram struct {
	counts atomic.Pointer[[histBuckets]atomic.Uint64]
	sum    atomic.Int64 // of the unclamped samples, so Mean is exact
}

// histIndex is the bucket of d (negative samples count as 0).
func histIndex(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return shift*histSub + int(v>>shift)
}

// histValue is the value a percentile reports for bucket i: its midpoint,
// rounded down.
func histValue(i int) time.Duration {
	if i < 2*histSub {
		return time.Duration(i)
	}
	shift := i/histSub - 1
	lo := uint64(i-shift*histSub) << shift
	return time.Duration(lo + (1<<shift)>>1)
}

func (h *histogram) add(d time.Duration) {
	c := h.counts.Load()
	if c == nil {
		c = new([histBuckets]atomic.Uint64)
		if !h.counts.CompareAndSwap(nil, c) {
			c = h.counts.Load()
		}
	}
	c[histIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// n counts the samples by summing the buckets: Add pays one atomic less,
// and only readers pay for the count.
func (h *histogram) n() uint64 {
	c := h.counts.Load()
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c {
		total += c[i].Load()
	}
	return total
}

// percentile picks the sample of rank q/100*(n-1) among the bucket counts,
// the same rank PercentileOf picks in the sorted samples.
func (h *histogram) percentile(q float64) time.Duration {
	c := h.counts.Load()
	if c == nil {
		return 0
	}
	// Rank within one snapshot, so writers racing the walk cannot move
	// the total under it.
	var snap [histBuckets]uint64
	var total uint64
	for i := range c {
		snap[i] = c[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q / 100 * float64(total-1))
	var seen uint64
	for i, k := range snap {
		if seen += k; seen > rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// Metrics aggregates chain-wide measurements. Safe for concurrent use:
// live-mode processes report concurrently (uncontended on the DES).
type Metrics struct {
	mu     sync.Mutex
	series map[string]*Series
	// exact makes every series exact (the DES: goldens print percentiles
	// of raw samples, and its traces bound their count). Otherwise only
	// the series created through Ordered are.
	exact  bool
	Alerts []nf.Alert
	// Counters are named monotonic counts snapshotted from chain
	// components (client-library op statistics, suppression counts...).
	Counters map[string]uint64
}

// NewMetrics builds an empty metrics collector. exact keeps every
// series' raw samples; otherwise series are histograms unless created
// through Ordered.
func NewMetrics(exact bool) *Metrics {
	return &Metrics{series: make(map[string]*Series), Counters: make(map[string]uint64), exact: exact}
}

// SetCounter records a named count (idempotent snapshot semantics: callers
// recompute totals rather than accumulate deltas).
func (m *Metrics) SetCounter(name string, v uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Counters[name] = v
}

// Counter reads a named count (0 when never recorded).
func (m *Metrics) Counter(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Counters[name]
}

// Get returns (creating) the named series. The per-packet series are
// resolved once by their writers ("proc.<vertex>" and "total.<vertex>" by
// each instance, "proc.root" by the root, "total.chain" by the sink), which
// then add to the *Series directly.
func (m *Metrics) Get(name string) *Series {
	return m.get(name, m.exact)
}

// Ordered returns (creating) the named series as an exact one on every
// substrate, for a creator whose readers need the samples in arrival
// order (Slice). It panics if name already exists as a histogram.
func (m *Metrics) Ordered(name string) *Series {
	return m.get(name, true)
}

func (m *Metrics) get(name string, exact bool) *Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.series[name]
	if !ok {
		s = &Series{}
		if !exact {
			s.hist = new(histogram)
		}
		m.series[name] = s
	} else if exact && s.hist != nil {
		panic(fmt.Sprintf("runtime: series %q already exists as a histogram", name))
	}
	return s
}

// alert records an alert an NF raised: the recorder NF contexts get.
func (m *Metrics) alert(a nf.Alert) {
	m.mu.Lock()
	m.Alerts = append(m.Alerts, a)
	m.mu.Unlock()
}

// AlertCount counts alerts of the given kind.
func (m *Metrics) AlertCount(kind string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, a := range m.Alerts {
		if a.Kind == kind {
			n++
		}
	}
	return n
}
