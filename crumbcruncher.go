// Package crumbcruncher is a from-scratch Go reproduction of
// "Measuring UID Smuggling in the Wild" (Randall et al., IMC 2022): the
// CrumbCruncher measurement system — four synchronized crawlers, a central
// controller, and a token-analysis pipeline — together with the
// synthetic-web substrate it runs on (virtual network, simulated browser
// with partitioned storage, generated tracker ecosystem).
//
// The Runner is the entry point; a one-call run of the entire study:
//
//	run, err := crumbcruncher.NewRunner(crumbcruncher.DefaultConfig()).Run(context.Background())
//	if err != nil { ... }
//	crumbcruncher.WriteReport(os.Stdout, run)
//
// Options wire in the cross-cutting concerns — WithTelemetry,
// WithRetryPolicy, WithCheckpoint, WithProgress — without touching the
// Config literal. By default execution streams: finished walks flow
// through token extraction and UID classification while the crawl is
// still running (see DESIGN.md §8).
//
// Results carry every table and figure from the paper's evaluation:
// run.Analysis exposes Table 2's summary, Table 3's redirector ranking,
// Figures 4–8, the headline smuggling rate, bounce tracking, the
// fingerprinting experiment and blocklist coverage; run.Cases are the
// confirmed UID smuggling instances with their Table 1 buckets.
package crumbcruncher

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/countermeasures"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/report"
	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/runio"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// Config configures a full pipeline run. See DefaultConfig and
// SmallConfig for starting points.
type Config = core.Config

// WorldConfig configures the synthetic web (Config.World).
type WorldConfig = web.Config

// Run is a completed pipeline run: the world, the crawl dataset, the
// candidate tokens, the confirmed UID cases and the analysis over them.
type Run = core.Run

// Case is one confirmed UID smuggling instance.
type Case = uid.Case

// IdentifyOptions configures the UID identification stage; the zero value
// is the paper's full method. Its baseline fields (two-crawler subsets,
// lifetime thresholds, Ratcliff/Obershelp slack) reproduce the prior-work
// strategies CrumbCruncher improves on.
type IdentifyOptions = uid.Options

// Analysis exposes every table and figure of the paper's evaluation.
type Analysis = analysis.Analysis

// Dataset is a complete crawl recording.
type Dataset = crawler.Dataset

// DefaultConfig returns the calibrated paper-scale configuration
// (EXPERIMENTS.md records how its measurements compare to the paper's).
func DefaultConfig() Config { return core.DefaultConfig() }

// SmallConfig returns a fast configuration for demos and tests.
func SmallConfig() Config { return core.SmallConfig() }

// Progress is a snapshot of a run's advancement, delivered to the
// WithProgress callback as walks complete and get analysed.
type Progress = core.Progress

// Option customizes a Runner at construction without the caller
// mutating a Config literal.
type Option func(*Config)

// WithTelemetry attaches an observability handle to the run.
func WithTelemetry(t *Telemetry) Option {
	return func(c *Config) { c.Telemetry = t }
}

// WithRetryPolicy sets the crawl's navigation retry policy.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Config) { c.Retry = p }
}

// WithCheckpoint attaches a checkpoint so an interrupted run resumes
// without redoing finished walks (or, under the default streaming
// engine, re-analysing them).
func WithCheckpoint(cp *Checkpoint) Option {
	return func(c *Config) { c.Checkpoint = cp }
}

// WithProgress registers a callback invoked with a Progress snapshot as
// walks complete and get analysed. Called from pipeline goroutines
// (serialized); keep it fast.
func WithProgress(fn func(Progress)) Option {
	return func(c *Config) { c.OnProgress = fn }
}

// Runner is the entry point: a configured pipeline that can execute
// the full study (Run) or re-run the post-crawl analysis over an
// existing run's walks (Reanalyze).
type Runner struct {
	cfg Config
}

// NewRunner builds a Runner from a base configuration and options.
// The Config is copied; later mutations of the caller's value do not
// affect the Runner.
func NewRunner(cfg Config, opts ...Option) *Runner {
	for _, o := range opts {
		o(&cfg)
	}
	return &Runner{cfg: cfg}
}

// Config returns the Runner's effective configuration (options applied).
func (r *Runner) Config() Config { return r.cfg }

// Run builds the synthetic web, runs the four-crawler crawl and the
// token pipeline, and returns the analysed run. When ctx is cancelled
// the crawl drains gracefully — in-flight walks finish, unstarted walks
// are recorded as skipped — and ctx's error is returned. Pair with
// WithCheckpoint to resume later.
//
// By default the analysis streams alongside the crawl; with
// Config.BatchAnalysis the finished crawl is fed to the same analysis
// engine afterwards. Both schedules produce bit-identical results.
func (r *Runner) Run(ctx context.Context) (*Run, error) {
	return core.ExecuteContext(ctx, r.cfg)
}

// Reanalyze re-runs the post-crawl analysis pipeline (path
// reconstruction, candidate extraction, UID identification,
// aggregation) over an existing run's recorded walks under the Runner's
// configuration — e.g. a different Parallelism or identification
// options. The crawl is not repeated; results are bit-identical for any
// Parallelism. The walks are replayed from the run's analysis source
// into the same engine a live run uses: in memory for a run with a
// decoded Dataset (which the result keeps), from the store for a
// store-backed run (AnalyzeStore). Cancellation stops every stage from
// taking new work and returns ctx's error.
func (r *Runner) Reanalyze(ctx context.Context, run *Run) (*Run, error) {
	out, err := core.AnalyzeSource(ctx, r.cfg, run.World, run.Analysis.Source())
	if err != nil {
		return nil, err
	}
	out.Dataset = run.Dataset
	return out, nil
}

// --- Resilience -------------------------------------------------------------

// RetryPolicy bounds retry sequences for seed navigations and step
// clicks (Config.Retry). The zero value disables retries.
type RetryPolicy = resilience.Policy

// BreakerConfig configures the per-registered-domain circuit breakers
// (Config.Breaker). The zero value disables them.
type BreakerConfig = resilience.BreakerConfig

// DefaultRetryPolicy returns the standard capped-exponential-backoff
// policy: 3 attempts, 500ms base, 8s cap, 2x multiplier, 20% jitter.
// All waiting is virtual-clock time; no wall time is spent.
func DefaultRetryPolicy() RetryPolicy { return resilience.DefaultPolicy() }

// Checkpoint incrementally records completed walks so an interrupted
// crawl can resume (Config.Checkpoint).
type Checkpoint = crawler.Checkpoint

// OpenCheckpoint opens (or creates) a checkpoint file for the given
// seed. Completed walks already on disk are restored instead of
// re-crawled; at Parallelism 1 a resumed dataset is byte-identical to an
// uninterrupted run. A torn final record (a crash mid-write) is dropped
// and recovered from automatically; a corrupt record quarantines the
// file to "<path>.corrupt" and returns an error matching
// errors.Is(err, runio.ErrCorrupt) — see OpenCheckpointTel.
func OpenCheckpoint(path string, seed int64) (*Checkpoint, error) {
	return crawler.OpenCheckpoint(path, seed)
}

// OpenCheckpointTel is OpenCheckpoint with telemetry attached: torn-tail
// recoveries and quarantines are counted on runio.recovered_records and
// runio.quarantined_files.
func OpenCheckpointTel(path string, seed int64, tel *Telemetry) (*Checkpoint, error) {
	return crawler.OpenCheckpointOpts(path, seed, runio.OpenOptions{Tel: tel})
}

// WriteReport renders the full evaluation report — every table and figure
// — as text. If replaying the run's walks for the figures failed, the
// report says so under its header line.
func WriteReport(w io.Writer, r *Run) { report.Render(w, r) }

// --- Observability ----------------------------------------------------------

// Telemetry is the pipeline's observability handle: a span tracer stamped
// from the virtual clock plus a registry of counters, gauges and
// histograms. Attach one via Config.Telemetry; a nil handle disables all
// instrumentation at zero cost, and enabling it never changes run
// results.
type Telemetry = telemetry.Telemetry

// Provenance is the self-describing header embedded in saved runs: seed,
// config hash, build identity and (when a run was traced) a telemetry
// summary.
type Provenance = telemetry.Provenance

// TraceSummary aggregates an exported trace (see cmd/crumbtrace).
type TraceSummary = telemetry.TraceSummary

// NewTelemetry returns a telemetry handle with the default span
// capacity. The virtual clock attaches automatically when Runner.Run
// wires the handle to the network.
func NewTelemetry() *Telemetry { return telemetry.New(nil, telemetry.DefaultSpanCapacity) }

// WriteTrace exports a traced run's spans as JSONL for cmd/crumbtrace.
func WriteTrace(path string, t *Telemetry) error {
	return t.Tracer().WriteJSONLFile(path)
}

// --- Run storage (RunStore API) ----------------------------------------------

// RunStore is one recorded crawl behind a pluggable storage backend:
// append walks as they complete, fetch one walk by index, or stream
// the whole run through a cursor without ever materialising the
// decoded dataset in memory. Two backends ship — a single CRC-framed
// line file and a sharded, gzip-compressed segment directory with a
// sidecar index (see internal/runstore) — and legacy single-document
// runs (written before the RunStore existed) open read-only through
// the same interface.
type RunStore = runstore.Store

// RunCursor iterates a RunStore's walks in ascending index order; Next
// returns io.EOF after the last walk.
type RunCursor = runstore.Cursor

// RunManifest identifies a stored run: seed, crawler roster, walk
// count, and the raw configuration and provenance documents.
type RunManifest = runstore.Manifest

// StoreBackend names a RunStore storage backend.
type StoreBackend = runstore.Backend

// The available RunStore backends. CreateRunStore picks the segment
// backend for paths ending in ".crumbs" (or a path separator) and the
// line backend otherwise.
const (
	BackendLine    = runstore.BackendLine
	BackendSegment = runstore.BackendSegment
)

// runManifestFor builds the manifest a fresh store for cfg carries.
func runManifestFor(cfg Config) (RunManifest, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return RunManifest{}, fmt.Errorf("crumbcruncher: encode config: %w", err)
	}
	prov := telemetry.NewProvenance(cfg.World.Seed, cfg, cfg.Telemetry)
	pblob, err := json.Marshal(&prov)
	if err != nil {
		return RunManifest{}, fmt.Errorf("crumbcruncher: encode provenance: %w", err)
	}
	return RunManifest{
		Header:     runio.Header{Seed: cfg.World.Seed},
		Crawlers:   crawler.AllCrawlers,
		Config:     blob,
		Provenance: pblob,
	}, nil
}

// CreateRunStore makes a new, empty run store at path for a crawl with
// the given configuration. The backend follows the path: ".crumbs"
// directories get the segment backend, plain files the line backend.
func CreateRunStore(path string, cfg Config) (RunStore, error) {
	m, err := runManifestFor(cfg)
	if err != nil {
		return nil, err
	}
	return runstore.Create(path, runstore.DetectBackend(path), m)
}

// OpenRunStore opens an existing run store, sniffing the backend: a
// directory is a segment store, a file is a line store or a legacy
// single-document run (the pre-RunStore format, served read-only).
func OpenRunStore(path string) (RunStore, error) { return runstore.Open(path) }

// SaveRunStore writes a completed run's crawl to a new store at path
// and finalizes it. Pick the segment backend (a ".crumbs" path) for
// large runs.
func SaveRunStore(path string, r *Run) error {
	st, err := CreateRunStore(path, r.Config)
	if err != nil {
		return err
	}
	var werr error
	if r.Dataset != nil {
		for _, w := range r.Dataset.Walks {
			if werr = st.Append(w); werr != nil {
				break
			}
		}
	} else {
		// A store-analyzed run holds no dataset: replay the walks from
		// the analysis source (i.e. the store it was loaded from).
		werr = r.Analysis.Source().ForEachWalk(st.Append)
	}
	if werr != nil {
		st.Close()
		return werr
	}
	if err := st.Finalize(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// AnalyzeStore re-runs the analysis pipeline over a stored run by
// cursor: walks stream through token extraction, lifetime scanning and
// UID identification in index order, so the decoded dataset is never
// resident all at once. The returned Run has a nil Dataset and reads
// st once more, in the single figure scan its first metrics or report
// call triggers — close st only after the Run is no longer used. A
// metrics JSON plus a report therefore cost two cursor passes and no
// point reads; a read error in the second pass is returned by
// WriteMetricsJSON and printed by WriteReport. The synthetic world is
// rebuilt from the stored configuration, deriving sites only on demand;
// results are byte-identical to the live run that recorded the walks.
func AnalyzeStore(ctx context.Context, st RunStore) (*Run, error) {
	m := st.Manifest()
	var cfg Config
	if len(m.Config) > 0 {
		if err := json.Unmarshal(m.Config, &cfg); err != nil {
			return nil, fmt.Errorf("crumbcruncher: stored config: %w", err)
		}
	}
	if cfg.World.Seed == 0 {
		cfg.World.Seed = m.Seed
	}
	world := web.BuildWorld(cfg.World)
	return core.AnalyzeStore(ctx, cfg, world, st)
}

// LoadRunStore opens the store at path and re-runs the analysis over
// it by cursor. The returned Run reads the store once more, in one
// figure scan on first use; the store is closed when the
// process exits (use OpenRunStore + AnalyzeStore to manage the handle
// explicitly).
func LoadRunStore(path string) (*Run, error) {
	st, err := OpenRunStore(path)
	if err != nil {
		return nil, err
	}
	return AnalyzeStore(context.Background(), st)
}

// --- Countermeasures (§7) ---------------------------------------------------

// Debouncer rewrites redirector navigations to their true destinations
// (Brave's defence).
type Debouncer = countermeasures.Debouncer

// NewDebouncer builds a Debouncer from known-smuggler hosts and a
// query-parameter blocklist.
func NewDebouncer(bounceHosts, stripParams []string) *Debouncer {
	return countermeasures.NewDebouncer(bounceHosts, stripParams)
}

// StripSuspectedUIDs removes known and UID-shaped query parameters from a
// URL — the paper's proposed mitigation.
func StripSuspectedUIDs(rawURL string, knownParams map[string]bool) string {
	return countermeasures.StripSuspectedUIDs(rawURL, knownParams)
}

// BreakageSummary tallies how pages degrade when their UID parameters are
// stripped (the §6 experiment).
type BreakageSummary = countermeasures.BreakageSummary
