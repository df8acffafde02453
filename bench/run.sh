#!/usr/bin/env bash
# Builds chcperf from source into .bench_build/ of the checkout this
# directory lives in and runs it there with the given flags, e.g.
#   bash bench/run.sh --workload fwd_t --seed 1 --seconds 20 --trace 0
# Everything the build and the run write (Go's build cache included) stays
# under .bench_build/; nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$out/chcperf" .
cd "$root"
exec "$out/chcperf" "$@"
