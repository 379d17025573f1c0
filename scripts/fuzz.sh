#!/usr/bin/env sh
# The single source of truth for the repo's fuzz targets. Every consumer —
# `make fuzz`, `make fuzz-smoke`, the CI fuzz job, and the nightly workflow —
# runs the targets through this script, so adding a target here adds it
# everywhere at once (targets used to be duplicated per consumer, and the
# copies drifted: FuzzEdgeSetModel was silently missing from the smoke runs).
#
# Usage: scripts/fuzz.sh <fuzztime, e.g. 10s or 5m>
set -eu

FUZZTIME="${1:?usage: scripts/fuzz.sh <fuzztime, e.g. 10s>}"

fuzz_one() {
	target="$1"
	pkg="$2"
	echo "==> fuzzing ${target} in ${pkg} for ${FUZZTIME}"
	go test -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZTIME}" "${pkg}"
}

fuzz_one FuzzParse ./internal/query/
fuzz_one FuzzBuild ./internal/xmlgraph/
fuzz_one FuzzEdgeSetModel ./internal/core/
fuzz_one FuzzBlockCodec ./internal/extentblock/
fuzz_one FuzzWALReplay ./internal/storage/
fuzz_one FuzzSegmentDecode ./internal/storage/
fuzz_one FuzzShardMerge ./internal/shard/
fuzz_one FuzzDeltaMaintenance .
