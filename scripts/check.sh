#!/usr/bin/env sh
# Full verification gate: formatting, static analysis (go vet plus the
# project's own imlint invariants), then the complete test suite under
# the race detector (the resilience layer's supervised goroutines make
# -race load-bearing, not optional).
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files are not gofmt-formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> imlint ./..."
go run ./cmd/imlint ./...

echo "==> imlint -suppressions ./..."
go run ./cmd/imlint -suppressions ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Allocation pins skip under -race, whose sync.Pool drops pooled scratch
# at random, so they run once more without it.
echo "==> allocation pins (no race)"
go test -count=1 -run '^TestWarmQueryAllocs$' ./internal/serve

# Short fuzzing runs beyond the seed corpora, which the suite above
# replays: the /v1 request decoder against json.Decoder, and the
# snapshot loader (a typed LoadError or a working oracle, never a panic).
echo "==> fuzz FuzzServeDecode (10s)"
go test -run '^$' -fuzz '^FuzzServeDecode$' -fuzztime 10s ./internal/serve
echo "==> fuzz FuzzPersistLoad (10s)"
go test -run '^$' -fuzz '^FuzzPersistLoad$' -fuzztime 10s ./internal/persist

# The imperf benchmark is a module of its own, so the root ./... never
# reaches its smoke test: the only check that compares /v1/seeds grid
# answers of a built and a cold-started oracle against pinned goldens.
echo "==> imperf benchmark smoke test"
(cd benchmarks/imperf && go test ./...)

echo "==> serving smoke test"
sh scripts/smoke_serve.sh

# RAM-capped graph substrate leg: stream an R-MAT graph to the binary
# format, run the same IMM cell on CSR (uncapped) and on the compact
# backend with bounded-arena sampling under GOMEMLIMIT, require
# byte-identical seeds and spreads.
echo "==> graph memory smoke test (GOMEMLIMIT)"
sh scripts/smoke_graphmem.sh

# One iteration of every bench harness (sampling, evaluation, greedy
# cover, persistence, graph backends): catches bit-rot in the bench
# harnesses without paying real bench time, plus a deterministic proof
# that the perf-regression ratchet trips on a slowed benchmark. The
# full timed sweep and baseline compare is `sh scripts/bench.sh`.
sh scripts/bench.sh smoke
sh scripts/bench.sh selftest

echo "==> all checks passed"
