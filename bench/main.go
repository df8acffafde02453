// Command chcperf is the repository's performance benchmark: one
// closed-loop plus fixed-rate run per workload over the live and net
// substrates, with a per-layer probe ladder and a traced pass. See
// README.md in this directory for every metric, workload and flag.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runFile is what -out writes and -compare reads: every run appended to
// the file so far, which makes a file one set of runs.
type runFile struct {
	Schema string    `json:"schema"`
	Runs   []*result `json:"runs"`
}

const schema = "chcperf/1"

func readRuns(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// appendRuns adds runs to the set stored at path, creating it if needed.
func appendRuns(path string, runs []*result) error {
	f, err := readRuns(path)
	if errors.Is(err, os.ErrNotExist) {
		f = &runFile{Schema: schema}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all, one after the other)")
		seed     = fs.Int64("seed", 1, "seed for trace.Config.Seed and ChainConfig.Seed")
		seconds  = fs.Int("seconds", runSeconds, "measured seconds per run, split between the open-loop and the closed-loop phase")
		traced   = fs.Int("trace", 0, "1 = traced pass: half-length phases with spans, then the per-layer probes; prints the per-layer metrics")
		out      = fs.String("out", "", "append the run(s) to this JSON set (input of -compare)")
		spans    = fs.String("spans", "", "traced pass: write the spans here (default .bench_build/spans-<workload>.json)")
		compare  = fs.Bool("compare", false, "compare two sets: chcperf -compare a.json b.json")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
		shards   = fs.Int("shards", 1, "reproducer: store shards (gated runs pin 1)")
		window   = fs.Int("window", defaultWindow, "reproducer: closed-loop packets in flight")
		dur      = fs.Duration("dur", 0, "reproducer: length of each phase, overriding -seconds")
		rate     = fs.Int("rate", 0, "reproducer: open-loop rate in pkts/s, overriding the workload's frozen rate")
		flows    = fs.Int("flows", 0, "reproducer: flows in the trace, the state working set (default 4000)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		stdout.Write(manifestJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: chcperf -compare a.json b.json")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "chcperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 || *window < burstLen || *shards < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "chcperf: need -seconds >= 1, -window >= 32, -shards >= 1, -trace 0 or 1")
		return 2
	}

	todo := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "chcperf: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		todo = []workload{*w}
	}
	code := 0
	var runs []*result
	for i := range todo {
		opt := options{
			seed: *seed, seconds: *seconds, trace: *traced == 1,
			window: *window, shards: *shards, dur: *dur, rate: *rate, flows: *flows, spans: *spans,
		}
		if opt.trace && opt.spans == "" {
			opt.spans = filepath.Join(".bench_build", "spans-"+todo[i].name+".json")
		}
		start := time.Now()
		res := runWorkload(&todo[i], opt, stdout)
		fmt.Fprintf(stdout, "  run took %.1f s\n", time.Since(start).Seconds())
		runs = append(runs, res)
		if !res.Correct {
			code = 1
		}
		// The result line: exactly correct, attempted, failed, metrics.
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted uint64           `json:"attempted"`
			Failed    uint64           `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintf(stderr, "chcperf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *out != "" {
		if err := appendRuns(*out, runs); err != nil {
			fmt.Fprintf(stderr, "chcperf: -out: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
