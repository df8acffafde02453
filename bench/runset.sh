#!/usr/bin/env bash
# Measures one set for -compare: N runs of every workload, each run with
# another seed, appended to the JSON set OUT.
#   bash bench/runset.sh OUT [FIRST_SEED=1] [N=10] [extra chcperf flags...]
set -euo pipefail
out="${1:?usage: runset.sh OUT [FIRST_SEED] [N] [flags...]}"
first="${2:-1}"
n="${3:-10}"
shift $(( $# < 3 ? $# : 3 ))
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for ((seed = first; seed < first + n; seed++)); do
	for w in fwd_t state_na state_eo net_fork; do
		# An incorrect run exits non-zero; it is in the set, so keep going.
		bash "$here/run.sh" --workload "$w" --seed "$seed" -out "$out" "$@" | tail -n 1 || true
	done
done
