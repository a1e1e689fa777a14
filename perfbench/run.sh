#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload team-share --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout
# (Go build cache, temp files and the binary); the run writes nothing.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
