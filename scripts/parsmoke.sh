#!/bin/sh
# CI smoke check: the post-crawl analysis engine must actually be
# faster in parallel. Runs BenchmarkAnalyzeParallel — Runner.Reanalyze
# replaying an in-memory crawl into the pooled AnalyzeSource at
# worker-pool sizes 1 and NumCPU — and asserts the parallel variant
# beats sequential.
#
# On runners with fewer than 4 CPUs the speedup is noise-bound, so the
# benchmark still runs (keeping the concurrent path exercised) but the
# assertion is downgraded to a warning.
#
# Usage: scripts/parsmoke.sh
# BENCHTIME overrides the iteration budget (default 2x).
set -eu
cd "$(dirname "$0")/.."

cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench '^BenchmarkAnalyzeParallel$' \
	-benchtime "${BENCHTIME:-2x}" . | tee "$raw"

# Benchmark lines look like:
#   BenchmarkAnalyzeParallel/parallelism-1-8   2   413ms/op ...
# where the trailing -8 is GOMAXPROCS (absent on 1-CPU runners).
par1="$(awk '$1 ~ /\/parallelism-1(-[0-9]+)?$/ { print $3; exit }' "$raw")"
parN="$(awk '$1 ~ /\/parallelism-/ && $1 !~ /\/parallelism-1(-[0-9]+)?$/ { print $3; exit }' "$raw")"

if [ -z "$par1" ] || [ -z "$parN" ]; then
	echo "FAIL: could not parse benchmark output" >&2
	exit 1
fi

if [ "$cpus" -lt 4 ]; then
	echo "WARN: runner has $cpus CPU(s) (< 4); not asserting parallel speedup" \
		"(parallelism-1: ${par1} ns/op, parallel: ${parN} ns/op)"
	exit 0
fi

if awk "BEGIN { exit !($parN < $par1) }"; then
	echo "OK: parallel analysis ${parN} ns/op beats sequential ${par1} ns/op on $cpus CPUs"
else
	echo "FAIL: parallel analysis ${parN} ns/op is not faster than sequential ${par1} ns/op on $cpus CPUs" >&2
	exit 1
fi
