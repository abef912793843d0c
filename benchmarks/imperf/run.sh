#!/usr/bin/env bash
# Build imperf from source and run it with the given arguments, e.g.
#
#   bash benchmarks/imperf/run.sh --workload imm-sweep --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# benchmark's scratch files all live under .bench_build/ in the current
# directory, so a run reads and writes nothing outside the checkout. A
# failed build exits non-zero without printing a result line.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$src" && go build -o "$build/imperf" .)
exec "$build/imperf" -workdir "$build" "$@"
