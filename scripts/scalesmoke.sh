#!/bin/sh
# CI smoke check for the world + RunStore scale path:
#
#   1. scale crawl: a 100k-domain world (sites derived on first visit)
#      crawled for 1k walks, saved to the segment store. Peak RSS is
#      compared against a budget — warn-only, because CI runners
#      vary — and the crawl must finish at all.
#   2. store identity: crumbreport re-analysing the saved segment
#      store must reproduce the crawl's metrics byte for byte.
#
# Usage: scripts/scalesmoke.sh
# RSS_BUDGET_KB overrides the warn threshold (default 2 GiB).
set -eu
cd "$(dirname "$0")/.."

SEED=11
RSS_BUDGET_KB="${RSS_BUDGET_KB:-2097152}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/crumbcruncher" ./cmd/crumbcruncher
go build -o "$work/crumbreport" ./cmd/crumbreport

echo "--- scale: 100k-domain world, 1k-walk crawl into the segment store"
store="$work/scale.crumbs"
# GNU time reports peak RSS; without it the crawl still runs, only the
# budget check is skipped.
if /usr/bin/time -v true 2>/dev/null; then
	/usr/bin/time -v -o "$work/time.txt" \
		"$work/crumbcruncher" -seed "$SEED" -sites 100000 -walks 1000 \
		-save "$store" -metrics -out "$work/scale.json" 2>/dev/null
	rss_kb="$(awk -F: '/Maximum resident set size/ { gsub(/ /, "", $2); print $2 }' "$work/time.txt")"
	if [ -n "$rss_kb" ] && [ "$rss_kb" -gt "$RSS_BUDGET_KB" ]; then
		echo "WARN: peak RSS ${rss_kb} kB exceeds the ${RSS_BUDGET_KB} kB budget (warn-only)"
	else
		echo "OK: peak RSS ${rss_kb:-unknown} kB within the ${RSS_BUDGET_KB} kB budget"
	fi
else
	echo "WARN: GNU time unavailable; skipping the RSS budget check"
	"$work/crumbcruncher" -seed "$SEED" -sites 100000 -walks 1000 \
		-save "$store" -metrics -out "$work/scale.json" 2>/dev/null
fi
if [ ! -d "$store" ]; then
	echo "FAIL: $store is not a segment directory" >&2
	exit 1
fi

echo "--- scale: crumbreport from the segment backend"
"$work/crumbreport" -in "$store" -metrics >"$work/report.json"
if ! cmp -s "$work/scale.json" "$work/report.json"; then
	echo "FAIL: crumbreport metrics from the segment store diverge from the crawl" >&2
	diff "$work/scale.json" "$work/report.json" >&2 || true
	exit 1
fi
echo "OK: segment-store re-analysis reproduces the crawl's metrics"
