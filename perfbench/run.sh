#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given flags (see perfbench/README.md). Every build artifact, cache
# and run file stays under .bench_build/ in the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
