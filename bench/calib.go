package main

import (
	"sort"
	"time"
)

// The box this benchmark runs on does not hold its speed. Minutes apart,
// the same binary has spent 52 and 105 microseconds of CPU on the same
// packet, with no steal time reported; bursts of ten to thirty seconds at
// two thirds of the speed are common, and a second of idleness halves the
// speed of the next second. No run length the time cap allows averages
// that out. So the harness times a fixed compute-bound kernel, for about
// 0.4 ms every 50 ms, on its own goroutine, all through every measured
// phase, and each timed end-to-end metric is restated as the reference box
// would have measured it: durations times the phase's kernel speed over
// refSpeed, rates divided by it. Over ninety back-to-back runs of one
// workload the kernel's speed correlated 0.87 with chain_pps, and restating
// halved the spread of chain_pps, cpu_us_per_pkt and lat_p50_us.

// refSpeed is the kernel's speed, in steps per microsecond, on the
// reference box (nproc 2) in its settled state while a chain is running.
const refSpeed = 190.0

const (
	calibWords = 1 << 11 // 16 KiB table: inside the L1
	calibSteps = 1 << 16 // one sample, about 0.4 ms
	calibEvery = 50 * time.Millisecond
)

// speedometer accumulates kernel samples between two readings.
type speedometer struct {
	table []uint64
	x     uint64
	next  time.Time // when the next sample is due
	got   []float64 // samples since the last reading, as shares of refSpeed
}

func newSpeedometer() *speedometer {
	return &speedometer{table: make([]uint64, calibWords), x: 1}
}

// sample runs the kernel once: an integer recurrence with one dependent
// load and store per step into a table larger than the private caches.
func (s *speedometer) sample() {
	x, table := s.x, s.table
	start := time.Now()
	for i := 0; i < calibSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		slot := &table[(x>>33)&(calibWords-1)]
		*slot += x
		x ^= *slot >> 7
	}
	elapsed := time.Since(start)
	s.x = x
	s.got = append(s.got, calibSteps/(float64(elapsed)/1e3)/refSpeed)
	s.next = start.Add(calibEvery)
}

// tick samples if calibEvery has passed since the last sample.
func (s *speedometer) tick() {
	if time.Now().After(s.next) {
		s.sample()
	}
}

// read returns the trimmed mean speed since the last reading, as a share of the
// reference box's, and starts a new reading.
func (s *speedometer) read() float64 {
	if len(s.got) == 0 {
		s.sample()
	}
	// A sample the scheduler interrupted reads low, one that ran while the
	// other core idled reads high: leave out a tenth at either end.
	sort.Float64s(s.got)
	trim := len(s.got) / 10
	kept := s.got[trim : len(s.got)-trim]
	var sum float64
	for _, v := range kept {
		sum += v
	}
	s.got = s.got[:0]
	return sum / float64(len(kept))
}

// settle keeps the kernel running until two consecutive 100 ms agree
// within 3 % (at most two seconds), so nothing is timed on a box that is
// still speeding up after idling.
func (s *speedometer) settle() {
	window := func() float64 {
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
			s.sample()
		}
		return s.read()
	}
	prev := window()
	for i := 0; i < 20; i++ {
		cur := window()
		if d := cur - prev; d < 0.03*prev && -d < 0.03*prev {
			return
		}
		prev = cur
	}
}
