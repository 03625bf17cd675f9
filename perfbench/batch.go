package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/web"
)

// Sizing, for a 2-CPU machine. A paper-crawl operation crawls
// paperWalks walks, one per seeder of DefaultConfig's 800-site world; a
// store-reanalyze operation re-analyses a storeWalks-walk store. Each
// operation repeats identical work, so a run's figures move with the
// seed's world and the machine, not with the operation count; larger
// inputs average the world out (at 400 crawled walks, walks/s spread by
// 13% over five seeds).
const (
	paperWalks   = 800
	storeWalks   = 600
	parallelism  = 2
	worldBuilds  = 5 // paper-crawl set-up repetitions
	storeWrites  = 3 // store-reanalyze set-up repetitions
	probeWrites  = 3 // SaveRunStore repetitions in the store probe
	maxLoggedBad = 3
)

// batchConfig is DefaultConfig at the given seed, walk count and the
// benchmark's pipeline parallelism.
func batchConfig(seed int64, walks int) core.Config {
	cfg := core.DefaultConfig()
	cfg.World.Seed = seed
	cfg.Walks = walks
	cfg.Parallelism = parallelism
	return cfg
}

// runOps repeats op until d has passed and returns the samples. With a
// tracer, every second operation is traced, in its own trace.
func runOps(d time.Duration, tr *Tracer, op func(root *Span) sample) window {
	var w window
	start := time.Now()
	for time.Since(start) < d {
		root := tracedRoot(tr, len(w.samples))
		s := op(root)
		root.End()
		s.traced = root != nil
		w.samples = append(w.samples, s)
	}
	w.elapsed = time.Since(start)
	return w
}

func logBad(n *int, format string, args ...any) {
	*n++
	if *n <= maxLoggedBad {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// paperCrawl is the paper's own flow: crawl a fresh fork of the eager
// world and stream-analyse it through core.ExecuteInWorld, then write
// the metrics JSON and the report.
type paperCrawl struct {
	cfg   core.Config
	work  string
	world *web.World
	ref   []byte // metrics JSON from the batch engine at Parallelism 1
	bad   int
}

func newPaperCrawl(seed int64, work string) *paperCrawl {
	return &paperCrawl{cfg: batchConfig(seed, paperWalks), work: work}
}

func (p *paperCrawl) setup(ctx context.Context) ([]time.Duration, error) {
	var reps []time.Duration
	for i := 0; i < worldBuilds; i++ {
		t0 := time.Now()
		p.world = web.BuildWorld(p.cfg.World)
		reps = append(reps, time.Since(t0))
	}
	// The reference takes the other engine: batch analysis, one worker.
	rcfg := p.cfg
	rcfg.BatchAnalysis = true
	rcfg.Parallelism = 1
	run, err := core.ExecuteInWorld(ctx, rcfg, p.world.Fork())
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	var buf bytes.Buffer
	if err := crumbcruncher.WriteMetricsJSON(&buf, run); err != nil {
		return nil, fmt.Errorf("reference metrics: %w", err)
	}
	p.ref = buf.Bytes()
	return reps, nil
}

func (p *paperCrawl) op(ctx context.Context, root *Span) sample {
	t0 := time.Now()
	var fork *web.World
	root.Call("web", "World.Fork", func() { fork = p.world.Fork() })
	cfg := p.cfg
	var prog *progressClock
	if root != nil {
		prog = &progressClock{start: t0}
		cfg.OnProgress = prog.observe
	}
	ex := root.Child("core", "ExecuteInWorld")
	exStart := time.Now()
	run, err := core.ExecuteInWorld(ctx, cfg, fork)
	if prog != nil && err == nil {
		ex.Interval("crawler", "crawl", exStart, prog.lastDone)
	}
	ex.End()
	if err != nil {
		logBad(&p.bad, "paper-crawl: %v", err)
		return sample{lat: time.Since(t0)}
	}
	var mbuf, rbuf bytes.Buffer
	root.Call("report", "WriteMetricsJSON", func() { err = crumbcruncher.WriteMetricsJSON(&mbuf, run) })
	root.Call("report", "WriteReport", func() { crumbcruncher.WriteReport(&rbuf, run) })
	s := sample{lat: time.Since(t0), walks: run.Analysis.WalkCount()}
	s.ok = err == nil && rbuf.Len() > 0 && bytes.Equal(mbuf.Bytes(), p.ref)
	if !s.ok {
		logBad(&p.bad, "paper-crawl: metrics differ from the batch engine's reference")
	}
	return s
}

func (p *paperCrawl) measure(ctx context.Context, d time.Duration, tr *Tracer) window {
	return runOps(d, tr, func(root *Span) sample { return p.op(ctx, root) })
}

func (p *paperCrawl) probe(ctx context.Context, tr *Tracer, lv layerValues) error {
	run, err := liveProbe(ctx, tr, p.cfg, lv)
	if err != nil {
		return err
	}
	if err := saveAndProbeStore(ctx, tr, run, p.work, p.ref, lv); err != nil {
		return err
	}
	return serveProbe(tr, p.cfg, filepath.Join(p.work, "serve-probe"), p.ref, lv)
}

func (p *paperCrawl) describe() map[string]any {
	return map[string]any{
		"world_sites":    p.cfg.World.NumSites,
		"walks_per_op":   p.cfg.Walks,
		"parallelism":    p.cfg.Parallelism,
		"metrics_digest": digest(p.ref),
	}
}

func (p *paperCrawl) close() error { return nil }

// storeReanalyze is the crumbreport path: open a stored crawl, analyse
// it by cursor and write the metrics JSON and the report.
type storeReanalyze struct {
	cfg  core.Config
	work string
	path string
	ref  []byte // metrics JSON of the live run that wrote the store
	bad  int

	writes []time.Duration
}

func newStoreReanalyze(seed int64, work string) *storeReanalyze {
	return &storeReanalyze{cfg: batchConfig(seed, storeWalks), work: work}
}

func (s *storeReanalyze) setup(ctx context.Context) ([]time.Duration, error) {
	// The crawl that feeds the store is not part of set-up time.
	run, err := core.ExecuteInWorld(ctx, s.cfg, web.BuildWorld(s.cfg.World))
	if err != nil {
		return nil, fmt.Errorf("crawl for the store: %w", err)
	}
	var buf bytes.Buffer
	if err := crumbcruncher.WriteMetricsJSON(&buf, run); err != nil {
		return nil, fmt.Errorf("live run metrics: %w", err)
	}
	s.ref = buf.Bytes()
	for i := 0; i < storeWrites; i++ {
		if s.path != "" {
			if err := os.RemoveAll(s.path); err != nil {
				return nil, err
			}
		}
		s.path = filepath.Join(s.work, fmt.Sprintf("run-%d.crumbs", i))
		d, err := saveStore(s.path, run)
		if err != nil {
			return nil, err
		}
		s.writes = append(s.writes, d)
	}
	return s.writes, nil
}

func (s *storeReanalyze) op(ctx context.Context, root *Span) sample {
	t0 := time.Now()
	res, err := reanalyzeOp(ctx, root, s.path)
	smp := sample{lat: time.Since(t0), walks: res.walks}
	if err != nil {
		logBad(&s.bad, "store-reanalyze: %v", err)
		return smp
	}
	smp.ok = bytes.Equal(res.metrics, s.ref)
	if !smp.ok {
		logBad(&s.bad, "store-reanalyze: metrics differ from the live run that wrote the store")
	}
	return smp
}

func (s *storeReanalyze) measure(ctx context.Context, d time.Duration, tr *Tracer) window {
	return runOps(d, tr, func(root *Span) sample { return s.op(ctx, root) })
}

func (s *storeReanalyze) probe(ctx context.Context, tr *Tracer, lv layerValues) error {
	if _, err := liveProbe(ctx, tr, s.cfg, lv); err != nil {
		return err
	}
	var writes []float64
	for _, d := range s.writes {
		writes = append(writes, d.Seconds())
	}
	lv["runstore.write_s"] = median(writes)
	if err := storeProbe(ctx, tr, s.path, s.ref, lv); err != nil {
		return err
	}
	return serveProbe(tr, s.cfg, filepath.Join(s.work, "serve-probe"), s.ref, lv)
}

func (s *storeReanalyze) describe() map[string]any {
	return map[string]any{
		"world_sites":    s.cfg.World.NumSites,
		"walks_stored":   s.cfg.Walks,
		"store_backend":  "segment",
		"metrics_digest": digest(s.ref),
	}
}

func (s *storeReanalyze) close() error { return nil }
