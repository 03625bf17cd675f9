#!/bin/sh
# Runs the tracked benchmark set and archives the results as JSON for
# cross-run comparison:
#   - end to end: the crawl (BenchmarkCrawl), the parallel post-crawl
#     re-analysis (BenchmarkAnalyzeParallel) and the streaming-vs-batch
#     schedule comparison (BenchmarkExecuteStreaming);
#   - per layer: web site-domain lookup and page synthesis
#     (BenchmarkDomainAt, BenchmarkBuildPage), DOM parsing
#     (BenchmarkParse) and the runstore crumbreport path on each backend
#     at 100 and 600 walks, with its passes/op and gets/op
#     (BenchmarkReportFromStore).
#
# The archive describes itself: NumCPU, GOMAXPROCS, Go version, commit
# (with a dirty flag) and the SmallConfig metrics digest, so a 1-CPU run
# or a change of output cannot pass as a trend.
#
# Usage: scripts/bench.sh output.json
# BENCHTIME overrides the end-to-end iteration budget (default 1x:
# BenchmarkAnalyzeParallel's fixture is a paper-scale crawl); the
# per-layer rows run for 1s each.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ] || [ -z "$1" ]; then
	echo "usage: scripts/bench.sh output.json" >&2
	exit 2
fi
out="$1"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench '^(BenchmarkCrawl|BenchmarkAnalyzeParallel|BenchmarkExecuteStreaming)$' \
	-benchtime "${BENCHTIME:-1x}" -benchmem . | tee "$raw"
go test -run '^$' -bench '^(BenchmarkDomainAt|BenchmarkBuildPage|BenchmarkParse)$' \
	-benchtime 1s -benchmem ./internal/web ./internal/dom | tee -a "$raw"
go test -run '^$' -bench '^BenchmarkReportFromStore$' \
	-benchtime 1s -benchmem . | tee -a "$raw"

num_cpu="$(nproc)"
# GOMAXPROCS as the benchmarks ran with it: go test suffixes each name
# with -N, and omits the suffix when it is 1.
gomaxprocs="$(awk '$1 ~ /^BenchmarkCrawl(-[0-9]+)?$/ { n = split($1, p, "-"); print (n > 1 ? p[n] : 1); exit }' "$raw")"
go_version="$(go env GOVERSION)"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=false
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	dirty=true
fi
digest="$(go run ./cmd/crumbcruncher -small -metrics | sha256sum | cut -c1-16)"
cpu_model="$(sed -n 's/^cpu: //p' "$raw" | head -n 1)"

awk -v num_cpu="$num_cpu" -v gomaxprocs="$gomaxprocs" -v go_version="$go_version" \
	-v commit="$commit" -v dirty="$dirty" -v digest="$digest" -v cpu_model="$cpu_model" '
BEGIN {
	gsub(/["\\]/, "", cpu_model)
	print "{"
	print "  \"machine\": {"
	printf "    \"num_cpu\": %s,\n    \"gomaxprocs\": %s,\n", num_cpu, gomaxprocs
	printf "    \"cpu\": \"%s\",\n    \"go_version\": \"%s\"\n", cpu_model, go_version
	print "  },"
	printf "  \"commit\": \"%s\",\n  \"dirty\": %s,\n", commit, dirty
	printf "  \"small_metrics_digest\": \"%s\",\n", digest
	printf "  \"benchmarks\": ["
	sep = ""
}
/^pkg: / { pkg = $2 }
/^Benchmark/ {
	printf "%s\n    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s", sep, pkg, $1, $2
	for (i = 3; i < NF; i += 2) {
		key = $(i + 1)
		gsub(/["\\]/, "", key)
		printf ", \"%s\": %s", key, $i
	}
	printf "}"
	sep = ","
}
END { print "\n  ]"; print "}" }
' "$raw" >"$out"

echo "wrote $out"
