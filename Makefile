# Developer entry points. `make check` is the gate every change must
# pass: it builds everything, vets, runs crumblint (the project's own
# determinism/telemetry/resource-discipline analyzers, via the same
# cached driver CI uses; any finding fails),
# runs the full test suite with the race detector on — which exercises
# the parallel analysis pipeline's determinism tests (Parallelism
# 1/4/16) under -race — and finishes with the chaos smoke (kill,
# corrupt, recover, diff against a clean run; DESIGN.md §12).

GO ?= go

.PHONY: check build vet lint lint-sarif test race bench bench-all chaos scale

check: build vet lint race chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# crumblint: wallclock, seededrand, maporder, spanend, fsyncpolicy,
# plus the interprocedural resource-discipline suite
# (mustclose, poolreset, ctxflow, sharedwrite). The driver runs
# analyzers in parallel per package with content-hash result
# caching under bin/.lintcache; any finding fails the build (waivers
# are //crumb:allow directives at the site, never a suppression file).
lint: bin/crumblint
	./bin/crumblint -cache bin/.lintcache ./...

# SARIF export for code-scanning upload (CI attaches this as an
# artifact): the report carries every finding.
lint-sarif: bin/crumblint
	./bin/crumblint -cache bin/.lintcache -sarif ./... > crumblint.sarif || true

bin/crumblint: FORCE
	$(GO) build -o bin/crumblint ./cmd/crumblint

.PHONY: FORCE
FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Crash-safety smoke: SIGKILL + bit-flip chaos at three process-level
# points, recovered metrics diffed byte-for-byte against clean runs.
chaos:
	scripts/chaossmoke.sh

# Scale smoke: 100k-domain world crawled into the segment store under
# an RSS budget (warn-only), store-vs-crawl metrics diffed byte-for-byte.
scale:
	scripts/scalesmoke.sh

# The tracked benchmark set (full crawl, parallel re-analysis,
# streaming-vs-batch schedules, plus the web and dom per-layer rows),
# archived with its machine, commit and metrics digest to the file
# named by OUT: make bench OUT=BENCH_<name>.json
bench:
	scripts/bench.sh $(OUT)

# Paper-scale benchmarks: every table/figure plus the parallel-analysis
# speedup benchmark (BenchmarkAnalyzeParallel).
bench-all:
	$(GO) test -bench=. -benchmem ./...
