GO ?= go

.PHONY: build test test-race test-stress flake-census vet lint lint-fix fmt-check fmt bench bench-smoke bench-compare price loc live-soak net-gate perf-guard examples ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race runs the test suite under the race detector. The package list
# is DERIVED (go list), not hand-maintained: every internal package except
# experiments — which re-runs the whole evaluation and would dominate CI
# under -race — is included automatically, so new packages (livenet,
# transport, ...) can never silently fall out of race coverage. The live
# invariant tests in runtime and the transport conformance suites are the
# concurrency payoff: real goroutines on the protocol hot paths.
test-race:
	$(GO) test -race -short $$($(GO) list ./internal/... | grep -v /experiments)
	$(GO) test -race -count=2 -run 'TestRecoverDeterminism|TestRecoverEquivalence' ./internal/store

# test-stress hammers the live and net failover tests under the race
# detector: they route traffic concurrently with failovers of one slot (1
# and 8 back to back), the interleaving that used to catch an ID between
# its slot swap and its redirect. A handful of rounds is not enough to hit
# a window that narrow; 50 is (about 0.5 s per round without -race). With
# them run the two-shard drain test and the {shards x mode x burst}
# invariant table (-short: its live diagonal), whose failures are as rare per
# packet, and TestRootTap, whose live row sends the root's tap copies
# through the shared burst path (its DES row rides along: -run splits on
# '/', so one pattern cannot pick a single row). Every other
# TestLive*/TestNet* joins once the
# replay fix lands: the FIN re-execution flake (ROADMAP) would turn a
# blanket pattern red.
test-stress:
	$(GO) test -race -short -count=50 -run 'TestLive.*Failover|TestNet.*Failover|TestLiveTwoShardDrains|TestLiveInvariantTable|TestRootTap' ./internal/runtime

# flake-census runs the four tests that share the known failover failure
# signature (ROADMAP item 1) interleaved, N rounds, and writes each test's
# runs, failures and distinct failure signatures to OUT. Run a parent's and
# a change's census side by side and compare the two files:
#   make flake-census N=120 OUT=flakes.b.json
flake-census:
	bash ci/flake_census.sh $(N) $(OUT)

vet:
	$(GO) vet ./...

# lint: go vet, staticcheck and the chclint invariant suite are all hard
# gates — the same three CI runs. staticcheck's version is pinned in CI
# (a floating @latest could break the build on a new check); a machine
# without the tool installed still gets the other two, with a loud notice
# so the gap is visible. chclint (cmd/chclint, DESIGN.md §9) enforces the
# repo's DES-determinism, transport-discipline and controller-only-
# mutation invariants; suppressions require a reasoned //chc:allow.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: WARNING staticcheck not installed (CI enforces it); ran go vet only"; \
	fi
	$(GO) run ./cmd/chclint ./...

# lint-fix runs only the chclint suite and prints every finding as
# file:line:col so editors can jump straight to each site; it exits
# nonzero while findings remain. The analyzers do not auto-rewrite — the
# fixes are judgment calls (sorted-keys idiom, routing through
# Controller.ApplySpec, the unlock/defer-relock pattern) — so "fix" means
# a tight find→fix→rerun loop over this target.
lint-fix:
	$(GO) run ./cmd/chclint -v ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

# loc prints the non-test Go line count outside bench/ and testdata/, the
# figure the subtraction pass (ROADMAP) tracks. Tracked and untracked
# files count; ignored ones do not.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test.go$$' | \
		grep -vE '^bench/|/testdata/' | xargs cat | wc -l

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-smoke compiles and runs every benchmark in the module exactly once,
# so experiment wiring (registry ids, table shapes the benchmarks parse)
# cannot silently rot: the paper figures, BenchmarkScale, BenchmarkDAG and
# the per-package micro-benchmarks. Wall-clock rates are chcperf's (bench/).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-compare is how a PR claims a wall-clock gain, or shows it moved
# nothing: A is the parent's set of chcperf runs and B the change's, each
# built with `bash bench/runset.sh SET FIRST_SEED N` from a checkout of that
# commit, the two sides alternating seed by seed (so the box's drift hits
# both) on seeds not used while the change was written. It prints, per
# workload and end-to-end metric, both medians and spreads and `within` /
# `outside` / `unresolved` against the bound, and exits non-zero on
# `outside` or an incorrect run. The two sets are checked in at the repo
# root as BENCH_<pr>.a.json / BENCH_<pr>.b.json (paths are relative to it):
#   make bench-compare A=BENCH_17.a.json B=BENCH_17.b.json
bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# price prints the per-NF price of correctness from one chcperf set: the
# CHC workloads' medians minus fwd_t's, over three NFs, in us of CPU,
# allocations and MiB of heap per packet, next to the paper's 0.6 us
# (ci/price.jq). The row for the change's set goes in a perf PR's CHANGES
# line:
#   make price B=BENCH_25.b.json
price:
	jq -r -f ci/price.jq $(B)

# live-soak runs the live execution mode under the race detector for a
# sustained window: TestLiveSoak repeats the fork failover (branch crash +
# root replay, conservation / XOR / duplication invariants after each
# round) and TestLiveBurstSoak offers a trace scaled to the window through
# the burst path. CHC_SOAK_SECONDS scales both (CI uses ~30).
live-soak:
	CHC_SOAK_SECONDS=$${CHC_SOAK_SECONDS:-30} $(GO) test -race -count=1 \
		-run '^(TestLiveSoak|TestLiveBurstSoak)$$' -v -timeout 15m ./internal/runtime

# net-gate is the multi-process loopback gate (DESIGN.md §12): a real
# coordinator + two chcd worker processes on 127.0.0.1, jq-asserted clean
# invariants plus nonzero cross-process traffic counters, then the
# SIGKILL round (worker killed mid-stream, invariants re-checked after
# the cross-process failover + replay).
net-gate:
	sh ci/net_gate.sh

# perf-guard regenerates the full benchmark JSON and fails on >25% goodput
# regression of the headline experiments against the checked-in baseline.
# The DES numbers are deterministic, so the threshold only absorbs
# intentional recalibration — bump BENCH_baseline.json in the same commit.
perf-guard:
	$(GO) run ./cmd/chcbench -json BENCH_fresh.json > /dev/null
	$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json -fresh BENCH_fresh.json

# examples builds and vets every example program individually, so example
# drift (an API change that strands a walkthrough) breaks the build even
# though examples have no test files.
examples:
	$(GO) vet ./examples/...
	@set -e; for d in examples/*/; do \
		echo "build $$d"; $(GO) build -o /dev/null ./$$d; done

ci: build lint fmt-check examples test
