package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric a change to that layer should move, the workload on
// which it should move it, and where the prediction is no change. Later
// performance work names its claim from this map; README.md gives how
// each metric is measured.
type layerMetric struct {
	Name     string
	Unit     string
	Moves    string // end-to-end metric(s) it should move
	On       string // workload(s) on which it should move them
	NoChange string // workload(s) where the prediction is no change
}

const (
	wlPaper = "paper-crawl"
	wlStore = "store-reanalyze"
	wlServe = "serve-mixed"
)

var layerMetrics = []layerMetric{
	{"web.build_world_s", "s", "setup_s", wlPaper, wlStore},
	{"web.page_us", "us", "walks_per_s; jobs_per_s", "paper-crawl; serve-mixed", wlStore},
	{"web.redirect_us", "us", "walks_per_s; jobs_per_s", "paper-crawl; serve-mixed", wlStore},
	{"netsim.requests", "count", "walks_per_s", wlPaper, wlStore},
	{"netsim.failures", "count", "walks_per_s", wlPaper, wlStore},
	{"dom.parse_us", "us", "walks_per_s", wlPaper, wlStore},
	{"dom.pages", "count", "walks_per_s", wlPaper, wlStore},
	{"crawler.crawl_s", "s", "walks_per_s", wlPaper, wlStore},
	{"crawler.steps", "count", "walks_per_s", wlPaper, "-"},
	{"crawler.step_fail_ratio", "ratio", "walks_per_s", wlPaper, "-"},
	{"core.tail_s", "s", "walks_per_s", wlPaper, "-"},
	{"core.queue_depth_max", "count", "walks_per_s", wlPaper, "-"},
	{"tokens.addwalk_us", "us", "walks_per_s", "paper-crawl; store-reanalyze (small share)", "-"},
	{"tokens.candidates", "count", "walks_per_s", "paper-crawl; store-reanalyze", "-"},
	{"uid.identify_s", "s", "walks_per_s", "paper-crawl; store-reanalyze", "-"},
	{"uid.cases", "count", "walks_per_s", "paper-crawl; store-reanalyze", "-"},
	{"analysis.aggregate_s", "s", "walks_per_s", "paper-crawl; store-reanalyze", "-"},
	{"runstore.open_s", "s", "walks_per_s", wlStore, wlPaper},
	{"runstore.passes", "count", "walks_per_s", wlStore, wlPaper},
	{"runstore.gets", "count", "walks_per_s", wlStore, wlPaper},
	{"runstore.walks_decoded", "count", "walks_per_s", wlStore, wlPaper},
	{"runstore.segment.decode_us", "us", "walks_per_s; job_p90_ms", "store-reanalyze; serve-mixed", wlPaper},
	{"runstore.line.decode_us", "us", "walks_per_s; job_p90_ms", "store-reanalyze; serve-mixed", wlPaper},
	{"runstore.write_s", "s", "setup_s", wlStore, wlPaper},
	{"runstore.bytes", "bytes", "setup_s", wlStore, wlPaper},
	{"core.analyze_store_s", "s", "walks_per_s", wlStore, "-"},
	{"report.metrics_s", "s", "walks_per_s", "store-reanalyze; paper-crawl", "-"},
	{"report.render_s", "s", "walks_per_s", "store-reanalyze; paper-crawl", "-"},
	{"serve.queue_wait_ms", "ms", "job_p90_ms", wlServe, "-"},
	{"serve.crawl_exec_ms", "ms", "jobs_per_s; job_p50_ms", wlServe, "-"},
	{"serve.reanalyze_exec_ms", "ms", "jobs_per_s; job_p50_ms", wlServe, "-"},
	{"serve.world_cache_hit_ratio", "ratio", "job_p90_ms", wlServe, "-"},
	{"serve.refused", "count", "error_rate", wlServe, "-"},
}
