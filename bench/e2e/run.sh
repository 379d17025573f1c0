#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from any directory.
#
#   bench/e2e/run.sh --workload serve-hot --seed 1 --seconds 8 --trace 0
#       one run; the last line of standard output is the result object.
#   bench/e2e/run.sh [--seed N] [--seconds S]
#       every workload, untraced then traced, appended to bench/e2e/out/results.jsonl.
#   bench/e2e/run.sh -compare a.jsonl b.jsonl
#       two result files under BENCHMARK.json's bounds.
#
# Everything written lands in the checkout: the Go build cache, the binary
# and the toolchain's own scratch files under .bench_build/, results under
# bench/e2e/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
cd "$root"

GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
GOFLAGS= CGO_ENABLED=0 \
	go build -C "$here" -o "$build/apex-e2e" .

case " $* " in
*" -compare "* | *" --compare "* | *" --workload "* | *" -workload "* | *" -h "* | *" --help "*)
	exec "$build/apex-e2e" "$@"
	;;
esac
for trace in 0 1; do
	for workload in embedded-mixed serve-hot router-scatter serve-churn; do
		"$build/apex-e2e" --workload "$workload" --trace "$trace" "$@"
	done
done
