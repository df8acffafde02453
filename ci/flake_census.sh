#!/usr/bin/env bash
# Flake census: runs the four tests that share the known failover failure
# signature, interleaved, and writes per-test runs, failures and distinct
# failure signatures to OUT as JSON.
#   bash ci/flake_census.sh N OUT      (or: make flake-census N=120 OUT=flakes.json)
# Each of N rounds runs TestLiveFailoverReplay and TestNetFailoverReplay
# once; every sixth round also runs TestLiveSoak and cmd/chcd
# TestMultiProcessFailoverReplay, which take about six times as long. N=120
# gives 120, 120, 20 and 20 runs.
#
# A failed run's signatures are its stuck-clock lines with the clock
# numbers and the flow part of each commit key dropped (the instance,
# vertex and object of every commit stay), or, when it logged none, its
# first test log line (usually the failing assertion) with every number
# replaced by N. The runtime tests log those lines through
# logStuckClocks; TestMultiProcessFailoverReplay logs the chcd report's
# "stuck" array in the same form (runtime.StuckClock), so MultiProc
# failures group by the clocks they left, not by their residue count. Comparing a parent's census with a change's, run side by
# side, is how a PR shows it did not raise a flake's rate.
set -euo pipefail
n="${1:?usage: flake_census.sh N OUT}"
out="${2:?usage: flake_census.sh N OUT}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go -C "$root" test -c -o "$work/runtime.test" ./internal/runtime
go -C "$root" test -c -o "$work/chcd.test" ./cmd/chcd

# run TEST PKGDIR BINARY: one invocation, appended to the results as one
# JSON line {test, pass, sigs}.
run() {
	local test="$1" dir="$2" bin="$3" log="$work/log" pass=true
	(cd "$root/$dir" && "$work/$bin" -test.run "^$test\$" -test.count=1 -test.timeout=10m) >"$log" 2>&1 || pass=false
	local sigs="[]"
	if [ "$pass" = false ]; then
		sigs="$({ grep -o 'stuck clock=.*' "$log" |
			sed -E 's/stuck clock=[0-9]+ //; s/\{[0-9]+ ([0-9]+) (v[0-9]+\/o[0-9]+)\/[0-9a-f]+\}/i\1:\2/g' ||
			grep -m 1 -E '^\s+[a-z_]+\.go:[0-9]+: ' "$log" |
			sed -E 's/^\s+//; s/[0-9]+/N/g' || echo 'no assertion logged'; } |
			sort -u | jq -R . | jq -s -c .)"
	fi
	jq -n -c --arg test "$test" --argjson pass "$pass" --argjson sigs "$sigs" \
		'{test: $test, pass: $pass, sigs: $sigs}' >>"$work/results"
	echo "$test pass=$pass" >&2
}

for ((i = 1; i <= n; i++)); do
	run TestLiveFailoverReplay internal/runtime runtime.test
	run TestNetFailoverReplay internal/runtime runtime.test
	if ((i % 6 == 0)); then
		run TestLiveSoak internal/runtime runtime.test
		run TestMultiProcessFailoverReplay cmd/chcd chcd.test
	fi
done

jq -s --arg commit "$(git -C "$root" describe --always --dirty)" --argjson rounds "$n" '
	{commit: $commit, rounds: $rounds,
	 tests: (group_by(.test) | map({
		test: .[0].test,
		runs: length,
		failures: (map(select(.pass | not)) | length),
		signatures: ([.[].sigs[]] | group_by(.) | map({signature: .[0], runs: length}))}))}
' "$work/results" >"$out"
