package runtime

import (
	"sort"
	"sync"
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
	// latency is the "total.chain" series: root ingress to egress.
	latency *Series
}

// NewSink builds the sink.
func NewSink(c *Chain) *Sink {
	return &Sink{chain: c, ReceivedByClass: make(map[uint8]uint64), latency: c.Metrics.Get("total.chain")}
}

// Start spawns the sink process.
func (s *Sink) Start() {
	ep := s.chain.tr.Endpoint(SinkEndpoint)
	s.chain.tr.Spawn(SinkEndpoint, func(p transport.Proc) {
		for {
			msg := ep.Recv(p)
			m, ok := msg.Payload.(PacketMsg)
			if !ok {
				continue
			}
			if s.seen.Has(m.Pkt.Meta.Clock) {
				if m.Pkt.Meta.Flags&packet.MetaReplay != 0 {
					s.ReplayFiltered++
					s.chain.arena.Put(m.Pkt)
					continue
				}
				s.Duplicates++
			}
			s.Received++
			s.Bytes += uint64(m.Pkt.WireLen())
			s.ReceivedByClass[m.Pkt.Meta.Class]++
			s.seen.Add(m.Pkt.Meta.Clock)
			if m.Pkt.IngressNs > 0 {
				s.latency.Add(p.Now().Sub(transport.Time(m.Pkt.IngressNs)))
			}
			// Egress is the packet's final release point: all accounting
			// above read the buffer, nothing retains it past here.
			s.chain.arena.Put(m.Pkt)
		}
	})
}

// Series is a sample reservoir with percentile queries. Samples optionally
// carry their timestamps (timeline experiments like Fig 9/13). Appends and
// reads are guarded by a mutex: in live mode every chain process reports
// into the shared metrics concurrently (uncontended on the DES).
type Series struct {
	mu    sync.Mutex
	vals  []time.Duration
	times []transport.Time
	cap   int
}

// Add appends a sample (dropped beyond the cap to bound memory).
func (s *Series) Add(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap > 0 && len(s.vals) >= s.cap {
		return
	}
	s.vals = append(s.vals, d)
}

// AddAt appends a timestamped sample.
func (s *Series) AddAt(at transport.Time, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap > 0 && len(s.vals) >= s.cap {
		return
	}
	s.vals = append(s.vals, d)
	s.times = append(s.times, at)
}

// Times returns a copy of the sample timestamps (parallel to Values;
// empty if samples were added without timestamps).
func (s *Series) Times() []transport.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]transport.Time(nil), s.times...)
}

// Slice returns a copy of the samples in [from, to) index range.
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

// N returns the sample count.
func (s *Series) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Percentile returns the q'th percentile (q in [0,100]).
func (s *Series) Percentile(q float64) time.Duration {
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

// Mean returns the average sample.
func (s *Series) Mean() time.Duration {
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

// Values returns a copy of the raw samples (CDF plotting).
func (s *Series) Values() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.vals...)
}

// Metrics aggregates chain-wide measurements. Safe for concurrent use:
// live-mode processes report concurrently (uncontended on the DES).
type Metrics struct {
	mu     sync.Mutex
	series map[string]*Series
	Alerts []nf.Alert
	// Counters are named monotonic counts snapshotted from chain
	// components (client-library op statistics, suppression counts...).
	Counters map[string]uint64
}

// NewMetrics builds an empty metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{series: make(map[string]*Series), Counters: make(map[string]uint64)}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.series[name]
	if !ok {
		s = &Series{cap: 4 << 20}
		m.series[name] = s
	}
	return s
}

// alertFn returns the alert recorder passed to NF contexts.
func (m *Metrics) alertFn(vertex string) func(nf.Alert) {
	return func(a nf.Alert) {
		m.mu.Lock()
		m.Alerts = append(m.Alerts, a)
		m.mu.Unlock()
	}
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
