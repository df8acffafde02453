package main

import (
	"strings"
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

// TestParseConfigRejects: every malformed config is an error naming the
// problem, not a panic at deploy time.
func TestParseConfigRejects(t *testing.T) {
	const path = `"paths": [{"class": "tcp", "vertices": ["a", "b"]}, {"class": "udp", "vertices": ["b"]}]`
	for _, tc := range []struct{ name, cfg, want string }{
		{"unknown field", `{"vertices": [{"name": "a"}], "sharts": 2}`, "unknown field"},
		{"no vertices", `{"vertices": []}`, "no vertices"},
		{"empty name", `{"vertices": [{"name": ""}]}`, "empty or repeated"},
		{"duplicate name", `{"vertices": [{"name": "a"}, {"name": "a"}]}`, "empty or repeated"},
		{"unknown nf", `{"vertices": [{"name": "a", "nf": "fw"}]}`, "unknown nf"},
		{"unknown backend", `{"vertices": [{"name": "a", "backend": "x"}]}`, "unknown backend"},
		{"unknown mode", `{"vertices": [{"name": "a", "mode": "x"}]}`, "unknown mode"},
		{"unknown path vertex", `{"vertices": [{"name": "a"}], "paths": [{"class": "tcp", "vertices": ["a", "z"]}]}`, "unknown vertex"},
		{"off-path vertex in path", `{"vertices": [{"name": "a"}, {"name": "t", "offpath": true}], "paths": [{"class": "tcp", "vertices": ["a", "t"]}]}`, "off-path"},
		{"repeated path vertex", `{"vertices": [{"name": "a"}], "paths": [{"class": "tcp", "vertices": ["a", "a"]}]}`, "twice"},
		{"uncovered vertex", `{"vertices": [{"name": "a"}, {"name": "b"}, {"name": "c"}], ` + path + `}`, "appears in no topology path"},
		{"cycle", `{"vertices": [{"name": "a"}, {"name": "b"}], "paths": [{"class": "tcp", "vertices": ["a", "b"]}, {"class": "udp", "vertices": ["b", "a"]}]}`, "cycle"},
	} {
		_, err := parseConfig([]byte(tc.cfg))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := parseConfig([]byte(`{"vertices": [{"name": "a"}, {"name": "b"}], ` + path + `}`)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestRunBodyKeepsOfferDefaults: a POST /run body that sets one field
// leaves the others at the offer defaults.
func TestRunBodyKeepsOfferDefaults(t *testing.T) {
	got, err := decodeOffer(strings.NewReader(`{"flows":10}`))
	want := defaultOffer()
	want.Flows = 10
	if err != nil || got != want {
		t.Fatalf("decodeOffer = %+v, %v; want %+v", got, err, want)
	}
}

// TestOfferFlagsShared: run and coordinator register the same offer flags
// with the same defaults.
func TestOfferFlagsShared(t *testing.T) {
	run, coord := (&runCmd{}).flags(), (&coordinatorCmd{}).flags()
	for _, name := range []string{"flows", "gbps", "udp-frac", "settle"} {
		r, c := run.Lookup(name), coord.Lookup(name)
		if r == nil || c == nil || r.DefValue != c.DefValue {
			t.Errorf("-%s: run %v, coordinator %v", name, r, c)
		}
	}
}

// TestCkptIntervalOnlyWhenGiven: without -ckpt-interval the substrate's
// default checkpoint period stands (live and net checkpoint, the DES does
// not); a given value, 0 included, overrides it.
func TestCkptIntervalOnlyWhenGiven(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want time.Duration
	}{
		{nil, runtime.LiveChainConfig().CheckpointEvery},
		{[]string{"-ckpt-interval", "0"}, 0},
		{[]string{"-ckpt-interval", "5ms"}, 5 * time.Millisecond},
	} {
		c := &runCmd{}
		if err := c.flags().Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		ccfg := runtime.LiveChainConfig()
		c.chain.apply(&ccfg)
		if ccfg.CheckpointEvery != tc.want {
			t.Errorf("%q: CheckpointEvery %v, want %v", tc.args, ccfg.CheckpointEvery, tc.want)
		}
	}
	if runtime.LiveChainConfig().CheckpointEvery == 0 {
		t.Error("live chains do not checkpoint by default")
	}
}
