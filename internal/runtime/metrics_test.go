package runtime

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"chc/internal/nf/lb"
	nfnat "chc/internal/nf/nat"
	"chc/internal/store"
	"chc/internal/trace"
)

// TestHistogramPercentiles: a histogram series' percentiles are within
// 1/64 relative (or 1 ns) of the exact ones over the same samples, with
// negative samples counted as 0, and its N and Mean are exact.
func TestHistogramPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := []struct {
		name string
		gen  func(i int) time.Duration
	}{
		{"random", func(int) time.Duration { return time.Duration(rng.ExpFloat64() * float64(rng.Int63n(1e7)+1)) }},
		{"uniform", func(int) time.Duration { return time.Duration(rng.Int63n(1 << 40)) }},
		{"constant", func(int) time.Duration { return 123_457 * time.Nanosecond }},
		{"zero", func(int) time.Duration { return 0 }},
		{"negative", func(int) time.Duration { return time.Duration(rng.Int63n(2000) - 1000) }},
		{"hour", func(int) time.Duration { return time.Hour + time.Duration(rng.Int63n(int64(time.Minute))) }},
		{"small", func(i int) time.Duration { return time.Duration(i % 300) }},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			m := NewMetrics(false)
			h := m.Get("h")
			var vals, clamped []time.Duration
			for i := range 20_000 {
				d := g.gen(i)
				h.Add(d)
				vals = append(vals, d)
				clamped = append(clamped, max(d, 0))
			}
			for _, q := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
				got, want := h.Percentile(q), PercentileOf(clamped, q)
				if diff := (got - want).Abs(); diff > 1 && diff > want/64 {
					t.Errorf("p%v = %v, exact %v: off by %v", q, got, want, diff)
				}
			}
			exact := &Series{}
			for _, d := range vals {
				exact.Add(d)
			}
			if h.N() != exact.N() || h.Mean() != exact.Mean() {
				t.Errorf("N, Mean = %d, %v; exact %d, %v", h.N(), h.Mean(), exact.N(), exact.Mean())
			}
			if h.Values() != nil || h.Times() != nil || h.Slice(0, h.N()) != nil {
				t.Error("a histogram series returned raw samples")
			}
		})
	}
}

// TestHistogramIndexMonotone: buckets are in value order and each bucket's
// reported value lies in it, so a percentile's bucket holds the exact one.
func TestHistogramIndexMonotone(t *testing.T) {
	prev := 0
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 129, 255, 256, 1e3, 1e6, 1e9, 1 << 40, 1<<62 + 5, 1<<63 - 1} {
		i := histIndex(time.Duration(v))
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d (of %d buckets)", v, i, prev, histBuckets)
		}
		if got := histIndex(histValue(i)); got != i {
			t.Fatalf("bucket %d (holding %d) reports %d, which is in bucket %d", i, v, histValue(i), got)
		}
		prev = i
	}
}

func TestHistogramAddAllocs(t *testing.T) {
	s := NewMetrics(false).Get("h")
	var d time.Duration
	if n := testing.AllocsPerRun(1000, func() {
		d += 977
		s.Add(d)
		s.AddAt(0, d)
	}); n != 0 {
		t.Fatalf("Add on a histogram series allocates %v times", n)
	}
}

// TestHistogramConcurrent: writers and readers share a histogram series
// without a lock (run under -race), and no sample is lost.
func TestHistogramConcurrent(t *testing.T) {
	s := NewMetrics(false).Get("h")
	const writers, per = 4, 5000
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				s.Add(time.Duration(w*per + i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s.N() < writers*per {
			_ = s.Percentile(99)
			_ = s.Mean()
		}
	}()
	wg.Wait()
	<-done
	if s.N() != writers*per {
		t.Fatalf("N = %d, want %d", s.N(), writers*per)
	}
	if p := s.Percentile(100); p < writers*per*63/64 {
		t.Fatalf("p100 = %v, want about %d", p, writers*per-1)
	}
}

// TestExactSeriesCountsDropped: an exact series keeps seriesCap samples and
// counts the rest instead of losing them silently.
func TestExactSeriesCountsDropped(t *testing.T) {
	s := NewMetrics(true).Get("e")
	for range seriesCap + 3 {
		s.Add(time.Microsecond)
	}
	if s.N() != seriesCap || s.Dropped() != 3 {
		t.Fatalf("N, Dropped = %d, %d; want %d, 3", s.N(), s.Dropped(), seriesCap)
	}
}

func TestOrderedSeriesStayExact(t *testing.T) {
	m := NewMetrics(false)
	o := m.Ordered("total.chain")
	o.AddAt(5, 2)
	o.Add(1)
	if got := o.Slice(0, o.N()); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("Slice = %v, want the samples in arrival order", got)
	}
	if m.Get("total.chain") != o {
		t.Fatal("Get returned another series than Ordered")
	}
	m.Get("proc.x")
	defer func() {
		if recover() == nil {
			t.Fatal("Ordered on a histogram series did not panic")
		}
	}()
	m.Ordered("proc.x")
}

// seriesBytes is the sample memory a series retains.
func seriesBytes(s *Series) int {
	if s.hist != nil {
		if s.hist.counts.Load() == nil {
			return 0
		}
		return histBuckets * 8
	}
	return 8*cap(s.vals) + 8*cap(s.times)
}

// TestLiveStageSeriesFixedSize: on live, two laps of a trace leave the
// per-stage series the size one lap left them, while each counts every
// packet it measured. total.chain alone keeps its samples in order.
func TestLiveStageSeriesFixedSize(t *testing.T) {
	cfg := LiveChainConfig()
	cfg.Seed = 5
	ch := New(cfg, threeNFSpecs(store.ModeEOCNA)...)
	ch.Start()
	defer ch.Stop()
	ch.Vertices[0].Seed(func(apply func(store.Request)) { nfnat.New().SeedPorts(apply) })
	ch.Vertices[2].Seed(func(apply func(store.Request)) { lb.New(8).SeedServers(apply) })
	tr := trace.Generate(trace.Config{Seed: cfg.Seed, Flows: 100, PktsPerFlowMean: 14,
		PayloadMedian: 1000, Hosts: 32, Servers: 16})
	names := []string{"proc.root"}
	for _, v := range ch.Vertices {
		names = append(names, "proc."+v.Spec.Name, "total."+v.Spec.Name)
	}
	lap := func() map[string]int {
		if !runInDrainedLaps(ch, tr) {
			logStuckClocks(t, ch)
			t.Fatal("lap did not drain")
		}
		size := map[string]int{}
		for _, n := range names {
			size[n] = seriesBytes(ch.Metrics.Get(n))
		}
		return size
	}
	one := lap()
	two := lap()
	for _, n := range names {
		if one[n] == 0 || two[n] != one[n] {
			t.Errorf("%s retains %d bytes after one lap and %d after two, want the same non-zero size", n, one[n], two[n])
		}
	}
	pkts := 2 * tr.Len()
	if n := ch.Metrics.Get("proc.root").N(); n != pkts {
		t.Errorf("proc.root N = %d, want %d", n, pkts)
	}
	for _, v := range ch.Vertices {
		var processed uint64
		for _, in := range v.Instances {
			processed += in.Processed
		}
		for _, n := range []string{"proc.", "total."} {
			if got := ch.Metrics.Get(n + v.Spec.Name).N(); got != int(processed) {
				t.Errorf("%s%s N = %d, want the %d packets processed", n, v.Spec.Name, got, processed)
			}
		}
	}
	e2e := ch.Metrics.Get("total.chain")
	if e2e.hist != nil || len(e2e.Slice(0, e2e.N())) != pkts {
		t.Errorf("total.chain holds %d ordered samples, want %d", len(e2e.Slice(0, e2e.N())), pkts)
	}
}

// BenchmarkSeriesAdd prices one latency sample in each form: an exact
// series' append (its slice regrows from empty every 1 Mi samples, as a
// fresh run's does) and a histogram's atomic bucket increment.
func BenchmarkSeriesAdd(b *testing.B) {
	for _, exact := range []bool{true, false} {
		name := "hist"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			m := NewMetrics(exact)
			s := m.Get("s")
			b.ReportAllocs()
			for i := range b.N {
				if exact && i%(1<<20) == 0 {
					s = &Series{}
				}
				s.Add(time.Duration(i & 0xffff))
			}
		})
	}
}
