package main

import (
	"testing"
	"time"

	"chc/internal/runtime"
)

// TestReportCountsDroppedLatency: once the latency series is full, the run
// report says how many packets its percentiles leave out.
func TestReportCountsDroppedLatency(t *testing.T) {
	ch := runtime.New(runtime.DefaultChainConfig())
	e2e := ch.Metrics.Get("total.chain")
	for e2e.Dropped() == 0 {
		e2e.Add(time.Microsecond)
	}
	e2e.Add(time.Microsecond)
	if r := makeReport(ch, runtime.ControllerStatus{}, "sim", 1, 0); r.LatencyDropped != 2 {
		t.Fatalf("LatencyDropped = %d, want 2", r.LatencyDropped)
	}
}
