// Package core wires the full CrumbCruncher pipeline end to end: build
// the synthetic web, run the four-crawler measurement crawl, extract and
// identify UIDs, and expose the analysis that reproduces every table and
// figure in the paper. The public crumbcruncher package is a facade over
// this package.
package core

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/category"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/entity"
	"crumbcruncher/internal/filterlist"
	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// Config configures a full pipeline run.
type Config struct {
	// World configures the synthetic web.
	World web.Config
	// Walks is the number of random walks (0: one per seeder).
	Walks int
	// StepsPerWalk is the walk length (0: the paper's 10).
	StepsPerWalk int
	// Parallelism bounds concurrency across the whole pipeline: the
	// number of concurrent walks during the crawl and the worker-pool
	// size of every post-crawl analysis stage (path reconstruction,
	// candidate extraction, UID identification, aggregation). 0 means
	// sequential; DefaultConfig sets 12, the paper's EC2 count. What
	// holds across values:
	//   - With breakers off, metrics JSON is byte-identical at any
	//     Parallelism, for a live run and for a re-analysis
	//     (TestGoldenMetricsDigests, TestWorkStealingCrawlDeterminism,
	//     TestParallelAnalysisDeterminism).
	//   - The raw dataset is byte-identical across reruns only at 1:
	//     concurrent walks share the virtual clock, so absolute
	//     timestamps depend on the schedule
	//     (crawler's TestCrawlWithRetriesDeterministicAtParallelism1).
	//   - A run with circuit breakers on is repeatable only at 1:
	//     which walk sees a breaker open depends on the schedule
	//     (crawler's TestCircuitBreakerFailsFast).
	Parallelism int
	// Machines is the number of simulated crawl machines the walks'
	// fingerprint surfaces are spread across (§3.8). 0 or 1 keeps every
	// walk on one machine; DefaultConfig sets the paper's 12 EC2
	// instances.
	Machines int
	// IframeBias is the controller's iframe preference (0: the 0.3
	// default; set NoIframes for a true zero).
	IframeBias float64
	// NoIframes forces a zero iframe preference, which IframeBias alone
	// cannot express (its zero value selects the default bias).
	NoIframes bool
	// Identify configures UID identification (zero value: the paper's
	// full method).
	Identify uid.Options
	// Retry is the crawl's navigation retry policy: capped exponential
	// backoff with seeded jitter, slept on the virtual clock. The zero
	// value performs no retries.
	Retry resilience.Policy `json:"retry,omitempty"`
	// Breaker configures per-registered-domain circuit breakers for the
	// crawl; the zero value disables them.
	Breaker resilience.BreakerConfig `json:"breaker,omitempty"`
	// RequestDeadline, when > 0, makes the virtual network time out any
	// request whose latency (including injected spikes) would exceed it.
	RequestDeadline time.Duration `json:"request_deadline,omitempty"`
	// BatchAnalysis runs the crawl and the analysis as two phases:
	// crawl the complete dataset first, then feed it to the one
	// analysis engine (AnalyzeSource). The default (false) feeds each
	// walk to that engine as it finishes. It is only a scheduling
	// switch — the golden digests pin both schedules to the same
	// output — and is kept because the benchmark's paper-crawl
	// reference run sets it; it goes once that reference moves.
	BatchAnalysis bool `json:"batch_analysis,omitempty"`
	// Checkpoint, when non-nil, records completed walks incrementally
	// and resumes an interrupted crawl without redoing finished walks.
	// Under the streaming engine the per-walk analysis state is
	// persisted alongside it (in "<path>.analysis"), so resumed walks
	// skip re-analysis too. Runtime wiring, not configuration.
	Checkpoint *crawler.Checkpoint `json:"-"`
	// OnProgress, when non-nil, receives a progress snapshot every time
	// a walk completes or is analyzed. Called from crawl and analysis
	// goroutines (serialized internally); keep it fast. Runtime wiring.
	OnProgress func(Progress) `json:"-"`
	// Telemetry, when non-nil, observes the whole pipeline: spans and
	// metrics from the network simulator, browsers, crawler and every
	// analysis stage. It is runtime wiring, not configuration (not
	// serialized), and strictly observational: a run with telemetry
	// produces bit-identical results to one without.
	Telemetry *telemetry.Telemetry `json:"-"`
}

// Hash returns the SHA-256 of the configuration's canonical JSON with
// every knob that provably cannot change run results normalized away:
// Parallelism is zeroed (every pipeline stage is bit-identical at any
// pool size) and the runtime wiring (Telemetry, Checkpoint, OnProgress)
// never serializes. Two configs with equal hashes therefore produce
// byte-identical runs, which is exactly the contract the serve layer's
// world cache and run provenance need: a scheduling knob must never
// fragment the world cache or make two reruns of the same study look
// like different studies.
//
// BatchAnalysis, though also a bit-identical schedule, stays in the
// digest, so existing world-cache keys and provenance blocks keep
// their values.
func (cfg Config) Hash() string {
	cfg.Parallelism = 0
	cfg.Telemetry = nil
	cfg.Checkpoint = nil
	cfg.OnProgress = nil
	// The method-free alias keeps telemetry.ConfigHash on its generic
	// JSON path instead of recursing back into Hash via the Hasher
	// interface.
	type canonical Config
	return telemetry.ConfigHash(canonical(cfg))
}

// analysisParallelism is the worker-pool size for the post-crawl stages.
func (cfg Config) analysisParallelism() int {
	if cfg.Parallelism < 1 {
		return 1
	}
	return cfg.Parallelism
}

// DefaultConfig returns the paper-scale configuration: the default world
// with one walk per seeder domain.
func DefaultConfig() Config {
	w := web.DefaultConfig()
	return Config{World: w, Walks: 2000, Parallelism: 12, Machines: 12}
}

// SmallConfig returns a fast configuration for tests and examples.
func SmallConfig() Config {
	return Config{World: web.SmallConfig(), Walks: 30, Parallelism: 4}
}

// Run is a completed pipeline run.
type Run struct {
	Config     Config
	World      *web.World
	Dataset    *crawler.Dataset
	Paths      []*tokens.Path
	Candidates []*tokens.Candidate
	Cases      []*uid.Case
	Stats      uid.Stats
	Analysis   *analysis.Analysis
	Lifetimes  *uid.LifetimeIndex
}

// ExecuteContext runs the full pipeline under ctx. Cancelling mid-crawl
// drains in-flight walks gracefully (recording them to the checkpoint,
// when one is attached) and returns ctx's error; the analysis stages are
// skipped for interrupted crawls.
//
// By default execution streams: completed walks flow straight into
// token extraction and UID grouping while the crawl is still running,
// and only the final merge waits for the last walk. Config.BatchAnalysis
// crawls first and then feeds the finished dataset to the same engine;
// results are bit-identical either way.
func ExecuteContext(ctx context.Context, cfg Config) (*Run, error) {
	sp := cfg.Telemetry.StartSpan("core", "build_world")
	world := web.BuildWorld(cfg.World)
	sp.End()
	return executeInWorld(ctx, cfg, world)
}

// ExecuteInWorld is ExecuteContext over a pre-built world: the crawl
// runs against the supplied world instead of constructing one from
// cfg.World. This is the serve layer's entry point — its world cache
// builds one template per distinct configuration and hands every job a
// run-private fork.
//
// The world must have been built from exactly cfg.World (the pair is
// validated, because walk counts and seeds are derived from the config
// while pages come from the world), and it must be private to this run:
// a World carries per-run mutable state — the virtual network with its
// clock, and the deterministic visit counters — so concurrent runs must
// each bring their own (see web.World.Fork). Results are byte-identical
// to ExecuteContext with the same configuration.
func ExecuteInWorld(ctx context.Context, cfg Config, world *web.World) (*Run, error) {
	if world.Config() != cfg.World {
		return nil, fmt.Errorf("core: world was built from a different configuration than cfg.World")
	}
	return executeInWorld(ctx, cfg, world)
}

// executeInWorld wires telemetry and deadlines into the world's network
// and runs the pipeline over it, streaming or crawl-then-analyse.
func executeInWorld(ctx context.Context, cfg Config, world *web.World) (*Run, error) {
	// Binds the run's registry (and the virtual clock) to the network;
	// a nil Telemetry leaves the network on its private registry.
	world.Network().SetTelemetry(cfg.Telemetry)
	if cfg.RequestDeadline > 0 {
		world.Network().SetRequestDeadline(cfg.RequestDeadline)
	}
	if !cfg.BatchAnalysis {
		return executeStreaming(ctx, cfg, world)
	}
	notify := newProgressNotifier(cfg.OnProgress, cfg.walkCount(world))
	ccfg := cfg.crawlConfig(world)
	if cfg.OnProgress != nil {
		ccfg.WalkSink = func(*crawler.Walk) {
			notify.update(func(p *Progress) { p.WalksDone++ })
		}
	}
	csp := cfg.Telemetry.StartSpan("core", "crawl")
	ds, err := crawler.Crawl(ctx, ccfg)
	if err != nil {
		csp.EndErr(err)
		return nil, fmt.Errorf("core: crawl: %w", err)
	}
	csp.End()
	r, err := AnalyzeSource(ctx, cfg, world, ds)
	if err != nil {
		return nil, err
	}
	r.Dataset = ds
	notify.update(func(p *Progress) { p.WalksAnalyzed = len(ds.Walks) })
	return r, nil
}

// walkCount resolves the effective number of walks (0 means one per
// seeder, mirroring the crawler's default).
func (cfg Config) walkCount(world *web.World) int {
	if cfg.Walks > 0 {
		return cfg.Walks
	}
	return world.NumSeeders()
}

// crawlConfig translates the run configuration into the crawler's: every
// crawl-affecting knob (including Machines and NoIframes — see their
// field docs) must pass through here rather than being hard-coded.
func (cfg Config) crawlConfig(world *web.World) crawler.Config {
	// Walk i seeds from Seeders[i mod len], so a k-walk crawl only ever
	// consults the first min(k, NumSites) seeders — at million-site
	// scale the full Tranco-style list is never materialised.
	return crawler.Config{
		Seed:         cfg.World.Seed,
		Network:      world.Network(),
		Seeders:      world.SeedersN(cfg.walkCount(world)),
		Walks:        cfg.Walks,
		StepsPerWalk: cfg.StepsPerWalk,
		Parallelism:  cfg.Parallelism,
		IframeBias:   cfg.IframeBias,
		NoIframes:    cfg.NoIframes,
		Machines:     cfg.Machines,
		Telemetry:    cfg.Telemetry,
		Retry:        cfg.Retry,
		Breaker:      cfg.Breaker,
		Checkpoint:   cfg.Checkpoint,
	}
}

// Reidentify re-runs UID identification with different options over the
// run's candidates (ablation benchmarks) and returns a fresh analysis.
func (r *Run) Reidentify(opt uid.Options) ([]*uid.Case, uid.Stats, *analysis.Analysis) {
	if opt.LifetimeOf == nil {
		opt.LifetimeOf = r.Lifetimes.Lifetime
	}
	par := r.Config.analysisParallelism()
	if opt.Parallelism == 0 {
		opt.Parallelism = par
	}
	cases, stats, _ := uid.Identify(context.Background(), r.Candidates, opt)
	agg, _ := analysis.NewFromSource(context.Background(), r.Analysis.Source(), r.Paths, cases, par, nil)
	return cases, stats, agg
}

// Attributor builds the paper's two-stage organisation attribution: the
// (partial) Disconnect-style entity list, backed by the manual research
// map (complete in the synthetic world).
func (r *Run) Attributor() *entity.Attributor {
	return entity.NewAttributor(
		entity.NewList(r.World.EntityListDomains()),
		entity.NewList(r.World.Organizations()),
	)
}

// Taxonomy builds the Webshrinker-style category lookup.
func (r *Run) Taxonomy() *category.Taxonomy {
	return category.New(r.World.Categories())
}

// DisconnectDomains builds the Disconnect-style tracker list.
func (r *Run) DisconnectDomains() *filterlist.DomainList {
	return filterlist.NewDomainList(r.World.DisconnectList())
}

// EasyList builds the EasyList-style filter list.
func (r *Run) EasyList() *filterlist.List {
	return filterlist.Parse(r.World.EasyListRules())
}

// TruthEval scores the pipeline against the generator's ground truth.
type TruthEval struct {
	// Cases is the number of confirmed UID cases.
	Cases int
	// TruePositive cases have parameter names the world registered as
	// UID-carrying.
	TruePositive int
	// FalsePositive cases carry any other parameter.
	FalsePositive int
}

// Precision returns TP / (TP + FP). With no cases at all it returns 1.0
// (vacuous truth): an empty run made no false claims, and dashboards
// should not read it as 0% precision.
func (e TruthEval) Precision() float64 {
	if e.Cases == 0 {
		return 1
	}
	return float64(e.TruePositive) / float64(e.Cases)
}

// EvaluateTruth compares confirmed cases against ground truth. Only
// evaluation code may consult the world's Truth registry; the pipeline
// itself never does.
func (r *Run) EvaluateTruth() TruthEval {
	var e TruthEval
	truth := r.World.Truth()
	for _, c := range r.Cases {
		e.Cases++
		if truth.IsUIDParam(c.Group.Name) {
			e.TruePositive++
		} else {
			e.FalsePositive++
		}
	}
	return e
}

// MissedRefererTransfers counts UID transfers that rode the Referer
// header across a first-party boundary instead of the navigation URL —
// the §6 limitation: CrumbCruncher "only look[s] for UIDs that are
// transferred in the query parameters of URLs", so these are invisible to
// the pipeline. Ground truth identifies the UID parameters; this is
// evaluation-only code.
func (r *Run) MissedRefererTransfers() int {
	truth := r.World.Truth()
	if r.Dataset != nil {
		return CountRefererTransfers(r.Dataset, truth.IsUIDParam)
	}
	// A store-backed run (AnalyzeStore) has no resident dataset: replay
	// the walks through the analysis source instead. The per-walk count
	// dedups on keys embedding the walk index, so replay order cannot
	// change the total.
	seen := map[string]bool{}
	count := 0
	r.Analysis.Source().ForEachWalk(func(w *crawler.Walk) error {
		count += countWalkRefererTransfers(w, truth.IsUIDParam, seen)
		return nil
	})
	return count
}

// CountRefererTransfers counts cross-site navigations whose Referer query
// string carried a UID parameter (per isUID) that the navigation URL
// itself did not. Every distinct value of a repeated parameter counts,
// deduplicated per (walk, step, crawler, param, value).
func CountRefererTransfers(ds *crawler.Dataset, isUID func(param string) bool) int {
	seen := map[string]bool{}
	count := 0
	for _, w := range ds.Walks {
		count += countWalkRefererTransfers(w, isUID, seen)
	}
	return count
}

// countWalkRefererTransfers folds one walk into the referer-transfer
// count. The dedup keys embed the walk index, so the tally is the same
// whether walks arrive from a dataset slice or a store cursor.
func countWalkRefererTransfers(w *crawler.Walk, isUID func(param string) bool, seen map[string]bool) int {
	count := 0
	for _, s := range w.Steps {
		for name, rec := range s.Records {
			for _, req := range rec.Requests {
				if req.Kind != "navigation" || req.Referer == "" {
					continue
				}
				ref, err := url.Parse(req.Referer)
				if err != nil {
					continue
				}
				target, err := url.Parse(req.URL)
				if err != nil {
					continue
				}
				if publicsuffix.SameSite(ref.Hostname(), target.Hostname()) {
					continue
				}
				targetQ := target.Query()
				for param, vs := range ref.Query() {
					if !isUID(param) {
						continue
					}
					if targetQ.Get(param) != "" {
						continue // also in the URL: the pipeline sees it
					}
					// Count every value of a repeated parameter, not
					// just the first.
					for _, v := range vs {
						key := fmt.Sprintf("%d/%d/%s/%s/%s", w.Index, s.Index, name, param, v)
						if !seen[key] {
							seen[key] = true
							count++
						}
					}
				}
			}
		}
	}
	return count
}
