#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload fleet-diurnal --seed 1 --seconds 15 --trace 0
#
# The Go build cache and the compiler's scratch space live in .bench_build/
# too, so a run reads and writes only inside the checkout (plus the Go
# toolchain itself).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"
