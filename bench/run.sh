#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the traced run's spans.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/amped-bench" .
exec "$out/amped-bench" "$@"
