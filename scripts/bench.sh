#!/usr/bin/env sh
# Benchmark runner and perf-regression ratchet (the wand workflow):
# run the hot-path benchmark set across a -cpu sweep, record the rows,
# and compare ns/op against the committed baseline — failing the gate
# when any benchmark regresses more than BENCH_MAX_REGRESSION_PCT.
#
# Usage: sh scripts/bench.sh [mode]
#
#   (default)  run the sweep into benchmarks/latest.txt, then compare
#              against benchmarks/baseline.txt
#   run        run the sweep only (writes benchmarks/latest.txt)
#   compare    compare an existing benchmarks/latest.txt
#   update     run the sweep and promote it to benchmarks/baseline.txt
#              (the baseline-promotion step: commit the result)
#   smoke      one iteration of the discovery-wide bench set — bit-rot
#              check only, no timing (used by check.sh and CI)
#   selftest   synthesize an artificially slowed latest.txt and assert
#              the compare gate FAILS it — proves the ratchet trips
#
# Environment:
#   BENCH_CPUS                -cpu sweep        (default 1,4,8)
#   BENCH_TIME                -benchtime        (default 0.5s)
#   BENCH_MAX_REGRESSION_PCT  failure threshold (default 30)
#
# Benchmark names include the -cpu suffix (…-4, …-8), so baseline and
# latest rows pair per worker count. Rows present on only one side are
# warnings, not failures: adding a benchmark must not break the gate,
# and retiring one is caught at the next `update`.
set -eu
cd "$(dirname "$0")/.."

# The ratchet set: hot paths (stealing sampler, batched evaluator, greedy
# max-cover on the flat inversion) plus their committed-in-tree baselines,
# the serving oracle's /v1/seeds path (the warm prefix read and the
# one-time greedy extension after a rehydration), its /v1/spread point
# query on both backends, which no end-to-end workload times on the
# snapshot pool, the shared lazy-greedy engine that offline PMC and the
# snapshot pool both run, the pool's construction (snapshot sampling and
# SCC condensation), and the score family's greedies on that engine
# (LDAG, SIMPATH and PMIA), which no end-to-end workload runs, one
# whole RR-family selection (an imm-sweep cell: every phase's sampling,
# inversion and greedy cover), and a k-sweep's evaluation in both seed-set
# shapes (a prefix chain, and an IMM sweep's sets that overlap without
# nesting), and one /v1 request through imserve's whole in-process
# handler (admission, body decode, warm oracle query, response encode),
# the only ratchet on the HTTP layer, and a replica's cold start from its
# snapshot (read, verify, then decode and validate the RR inversion). A
# top-level alternative may name sub-benchmarks:
# BenchmarkExt_Exclusions/PMIA runs that row alone.
PATTERN='BenchmarkRRSampleSkew|BenchmarkRRSampleBatch|BenchmarkRRSelectIMM|BenchmarkSpreadEvalSkew|BenchmarkSpreadEvalBatch/(batch|imm)|BenchmarkGreedyMaxCoverFlat|BenchmarkOracleSpread|BenchmarkOracleSeeds|BenchmarkOracleSeedsCold|BenchmarkPoolSeedsCold|BenchmarkPoolBuild|BenchmarkTable4_LDAGvsSIMPATH|BenchmarkExt_Exclusions/PMIA|BenchmarkServeHandler|BenchmarkPersistColdStart'
# The smoke set: every bench harness the repo ships, one iteration.
SMOKE_PATTERN='BenchmarkRR|BenchmarkSpreadEval|BenchmarkGreedyMaxCover|BenchmarkPersist|BenchmarkGraphBackend|BenchmarkOracle|BenchmarkPoolSeeds|BenchmarkPoolBuild|BenchmarkTable4_LDAGvsSIMPATH|BenchmarkExt_Exclusions/PMIA|BenchmarkServeHandler'

CPUS="${BENCH_CPUS:-1,4,8}"
TIME="${BENCH_TIME:-0.5s}"
MAX_PCT="${BENCH_MAX_REGRESSION_PCT:-30}"
BASELINE=benchmarks/baseline.txt
LATEST=benchmarks/latest.txt

run_sweep() {
	mkdir -p benchmarks
	echo "==> bench sweep: -cpu $CPUS -benchtime $TIME"
	go test -run=NONE -bench="$PATTERN" -cpu "$CPUS" -benchtime "$TIME" . | tee "$LATEST"
}

# compare <baseline> <latest>: pair rows by full benchmark name
# (including the -cpu suffix) and fail on ns/op regressions past the
# threshold.
compare() {
	if [ ! -f "$1" ]; then
		echo "bench.sh: no baseline at $1 — run 'sh scripts/bench.sh update' and commit it" >&2
		exit 1
	fi
	echo "==> bench compare: $2 vs $1 (limit +$MAX_PCT%)"
	awk -v max="$MAX_PCT" '
		FNR == NR {
			if ($1 ~ /^Benchmark/) base[$1] = $3
			next
		}
		$1 ~ /^Benchmark/ {
			seen[$1] = 1
			if (!($1 in base)) {
				printf "WARN  %-55s no baseline row (new benchmark?)\n", $1
				next
			}
			pct = base[$1] > 0 ? ($3 - base[$1]) * 100.0 / base[$1] : 0
			status = pct > max ? "FAIL" : "ok"
			printf "%-5s %-55s %14.0f -> %14.0f ns/op  %+7.1f%%\n", status, $1, base[$1], $3, pct
			if (pct > max) bad = 1
		}
		END {
			for (n in base) if (!(n in seen))
				printf "WARN  %-55s in baseline but missing from this run\n", n
			if (bad) {
				printf "bench.sh: regression beyond +%s%% — investigate, or re-promote with scripts/bench.sh update\n", max
				exit 1
			}
		}
	' "$1" "$2"
}

case "${1:-check}" in
smoke)
	echo "==> bench smoke (one iteration, discovery-wide)"
	go test -benchtime=1x -run=NONE -bench="$SMOKE_PATTERN" ./...
	;;
run)
	run_sweep
	;;
compare)
	compare "$BASELINE" "$LATEST"
	;;
update)
	run_sweep
	cp "$LATEST" "$BASELINE"
	echo "==> promoted $LATEST to $BASELINE — commit it"
	;;
selftest)
	# Prove the gate trips: inflate every baseline row 10x and present
	# it as the latest run; compare MUST fail.
	if [ ! -f "$BASELINE" ]; then
		echo "bench.sh selftest: no baseline at $BASELINE" >&2
		exit 1
	fi
	tmp=$(mktemp)
	trap 'rm -f "$tmp"' EXIT
	awk '{ if ($1 ~ /^Benchmark/) $3 = $3 * 10; print }' "$BASELINE" >"$tmp"
	if compare "$BASELINE" "$tmp" >/dev/null 2>&1; then
		echo "bench.sh selftest: FAILED — a 10x slowdown passed the compare gate" >&2
		exit 1
	fi
	echo "==> bench selftest ok: 10x slowdown correctly fails the compare gate"
	;;
check)
	run_sweep
	compare "$BASELINE" "$LATEST"
	;;
*)
	echo "bench.sh: unknown mode '$1' (want run, compare, update, smoke, selftest, or no argument)" >&2
	exit 2
	;;
esac
