#!/usr/bin/env bash
# Builds partitad and the benchmark from the checkout this is run in,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload select-stream --seed 1 --seconds 30 --trace 0
#
# Build caches and outputs stay under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/partitad" ./cmd/partitad >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
