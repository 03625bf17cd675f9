package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runio"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// Progress is a snapshot of a run's advancement, delivered to
// Config.OnProgress. WalksAnalyzed trails WalksDone by the walks
// sitting in the streaming queue (QueueDepth); in batch mode it jumps
// from 0 to WalksTotal when the analysis phase completes.
type Progress struct {
	WalksTotal    int
	WalksDone     int
	WalksAnalyzed int
	QueueDepth    int
}

// progressNotifier serializes Progress mutations and callback delivery
// so OnProgress observers see monotonic snapshots. All methods are
// no-ops when no callback is registered.
type progressNotifier struct {
	mu sync.Mutex
	fn func(Progress)
	p  Progress
}

func newProgressNotifier(fn func(Progress), walks int) *progressNotifier {
	return &progressNotifier{fn: fn, p: Progress{WalksTotal: walks}}
}

func (n *progressNotifier) update(mut func(*Progress)) {
	if n == nil || n.fn == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mut(&n.p)
	n.fn(n.p)
}

// analysisStateVersion is bumped when the sidecar layout changes.
const analysisStateVersion = 1

// analysisEntry is one walk's persisted analysis state in the
// checkpoint's "<path>.analysis" sidecar.
type analysisEntry struct {
	Index  int               `json:"index"`
	Tokens tokens.WalkTokens `json:"tokens"`
}

func analysisHeader(seed int64) runio.Header {
	return runio.Header{Format: runio.AnalysisFormat, Version: analysisStateVersion, Seed: seed}
}

// executeStreaming runs the crawl and the per-walk analysis stages
// concurrently: the crawl's WalkSink feeds every finished walk to the
// feed's worker pool (walkFeed.pump), which extracts its paths, finds
// its candidates, scans its cookie lifetimes and groups its tokens
// while the crawl keeps producing. Only the cross-walk stages
// (lifetime-index merge, deferred classification, ordered reduce,
// aggregation) wait for the last walk.
func executeStreaming(ctx context.Context, cfg Config, world *web.World) (*Run, error) {
	tel := cfg.Telemetry
	walks := cfg.walkCount(world)

	esp := tel.StartSpan("core", "stream")
	feed := newWalkFeed(cfg, walks)
	feed.notify = newProgressNotifier(cfg.OnProgress, walks)
	if cp := cfg.Checkpoint; cp != nil && cp.Path() != "" {
		if err := feed.resume(cp); err != nil {
			esp.EndErr(err)
			return nil, fmt.Errorf("core: analysis state: %w", err)
		}
		defer feed.sidecar.Close()
	}

	var ds *crawler.Dataset
	csp := tel.StartSpan("core", "crawl")
	// Crawl only returns once every walk goroutine — and with it every
	// WalkSink call — has finished, and pump drains its workers even on
	// crawl failure: a cancelled run must not leak analysis goroutines.
	crawlErr := feed.pump(func(sink func(*crawler.Walk) error) error {
		ccfg := cfg.crawlConfig(world)
		// The crawl only makes indices in [0, walks); pump returns the
		// error of any sink call that fails.
		ccfg.WalkSink = func(w *crawler.Walk) { _ = sink(w) }
		var err error
		ds, err = crawler.Crawl(ctx, ccfg)
		return err
	})
	if crawlErr != nil {
		csp.EndErr(crawlErr)
		esp.EndErr(crawlErr)
		return nil, fmt.Errorf("core: crawl: %w", crawlErr)
	}
	csp.End()

	// Drain: merge every per-walk product in walk-index order and run
	// the cross-walk stages.
	dsp := tel.StartSpan("analysis", "stream_drain")
	run, err := feed.drain(ctx, world, ds)
	if err != nil {
		dsp.EndErr(err)
		esp.EndErr(err)
		return nil, err
	}
	dsp.End()
	esp.End()
	run.Dataset = ds
	return run, nil
}

// walkFeed is the post-crawl pipeline, the only analysis engine: every
// walk pushed into it goes through token extraction, cookie-lifetime
// scanning and UID grouping on its own, and one drain merges the
// per-walk products in walk-index order and runs the cross-walk stages.
// The live crawl's WalkSink and a walk source's ForEachWalk
// (AnalyzeSource) both feed it through pump, which is why a store
// re-analysis reproduces the live run byte for byte.
//
// Determinism: every per-walk product lands in a pre-sized,
// walk-indexed slot and every drain merges those slots in walk-index
// order, so the result is bit-identical at any parallelism and in any
// arrival order (the same contract as the parallel package).
type walkFeed struct {
	cfg   Config
	walks int
	acc   *tokens.Accumulator
	life  *uid.LifetimeAccumulator
	ident *uid.StreamIdentifier

	// notify reports the live crawl's progress; nil elsewhere.
	notify *progressNotifier
	// restored holds per-walk tokens adopted from a resume sidecar, and
	// sidecar records freshly extracted ones (checkpointed crawls only).
	restored map[int]tokens.WalkTokens
	sidecar  *runio.LineFile
}

func newWalkFeed(cfg Config, walks int) *walkFeed {
	opt := cfg.Identify
	if opt.Parallelism == 0 {
		opt.Parallelism = cfg.analysisParallelism()
	}
	if opt.Telemetry == nil {
		opt.Telemetry = cfg.Telemetry
	}
	return &walkFeed{
		cfg:   cfg,
		walks: walks,
		acc:   tokens.NewAccumulator(cfg.World.Seed, walks, crawler.AllCrawlers, cfg.Telemetry),
		life:  uid.NewLifetimeAccumulator(walks),
		ident: uid.NewStreamIdentifier(walks, opt),
	}
}

// resume adopts the per-walk analysis state an interrupted run
// persisted beside checkpoint cp, and opens that sidecar for this run's
// own walks. Only walks the checkpoint will actually resume (rather
// than re-crawl) are eligible — the snapshot is taken before the crawl
// starts, so the two sets match exactly.
func (f *walkFeed) resume(cp *crawler.Checkpoint) error {
	tel := f.cfg.Telemetry
	resumable := map[int]bool{}
	for _, i := range cp.CompletedIndices() {
		resumable[i] = true
	}
	scPath := cp.Path() + ".analysis"
	scOpts := runio.OpenOptions{Tel: tel}
	lf, lines, err := runio.OpenLineFileOpts(scPath, analysisHeader(f.cfg.World.Seed), scOpts)
	if errors.Is(err, runio.ErrCorrupt) {
		// The sidecar is a pure cache of per-walk analysis state: with
		// the corrupt file quarantined, start a fresh one and recompute
		// the tokens from the checkpointed walks. The run stays
		// byte-identical — only the restore fast path is lost.
		tel.Registry().Counter("core.stream_sidecar_errors").Inc()
		lf, lines, err = runio.OpenLineFileOpts(scPath, analysisHeader(f.cfg.World.Seed), scOpts)
	}
	if err != nil {
		return err
	}
	f.sidecar = lf
	f.restored = map[int]tokens.WalkTokens{}
	for _, line := range lines {
		var e analysisEntry
		if json.Unmarshal(line, &e) != nil {
			break // schema mismatch in the tail: stop, like a torn write
		}
		if resumable[e.Index] {
			f.restored[e.Index] = e.Tokens // last entry wins
		}
	}
	return nil
}

// pump is the feed's one worker pool. produce hands every walk to sink,
// which queues it on a bounded channel (blocking when full, which is
// how a live crawl gets backpressure); analysis-parallelism workers
// fold the queued walks into the feed while produce keeps going. sink
// rejects a walk whose index falls outside [0, walks) — a gapped or
// damaged store — and pump returns produce's error or, failing that,
// the first sink error. The workers are drained before pump returns,
// whatever the outcome.
func (f *walkFeed) pump(produce func(sink func(*crawler.Walk) error) error) error {
	tel := f.cfg.Telemetry
	reg := tel.Registry()
	par := f.cfg.analysisParallelism()
	queueDepth := reg.Gauge("core.stream_queue_depth")
	workers := reg.Gauge("core.stream_workers")
	analyzed := reg.Counter("core.stream_walks_analyzed")
	restoredCtr := reg.Counter("core.stream_walks_restored")
	sidecarErrs := reg.Counter("core.stream_sidecar_errors")

	walkCh := make(chan *crawler.Walk, par)
	var wwg sync.WaitGroup
	for k := 0; k < par; k++ {
		wwg.Add(1)
		workers.Add(1)
		go func() {
			defer wwg.Done()
			defer workers.Add(-1)
			for w := range walkCh {
				queueDepth.Add(-1)
				sp := tel.StartSpan("analysis", "stream_walk").
					Attr("walk", strconv.Itoa(w.Index))
				wt, ok := f.restored[w.Index]
				if ok {
					f.acc.Restore(w.Index, wt)
					restoredCtr.Inc()
					sp.Attr("restored", "true")
				} else {
					wt = f.acc.AddWalk(w)
					if f.sidecar != nil && !w.Skipped {
						if err := f.sidecar.Append(analysisEntry{Index: w.Index, Tokens: wt}); err != nil {
							sidecarErrs.Inc()
						}
					}
				}
				f.life.AddWalk(w)
				f.ident.AddWalk(w.Index, wt.Candidates)
				sp.End()
				analyzed.Inc()
				f.notify.update(func(p *Progress) {
					p.WalksAnalyzed++
					p.QueueDepth--
				})
			}
		}()
	}

	var mu sync.Mutex
	var sinkErr error
	err := produce(func(w *crawler.Walk) error {
		if w.Index < 0 || w.Index >= f.walks {
			err := fmt.Errorf("core: walk index %d outside [0, %d)", w.Index, f.walks)
			mu.Lock()
			if sinkErr == nil {
				sinkErr = err
			}
			mu.Unlock()
			return err
		}
		queueDepth.Add(1)
		f.notify.update(func(p *Progress) {
			p.WalksDone++
			p.QueueDepth++
		})
		walkCh <- w
		return nil
	})
	close(walkCh)
	wwg.Wait()
	if err == nil {
		err = sinkErr
	}
	return err
}

// drain merges the fed walks, identifies UIDs across them and
// aggregates the figures over src. The returned Run has no Dataset;
// callers holding one attach it.
func (f *walkFeed) drain(ctx context.Context, world *web.World, src analysis.WalkSource) (*Run, error) {
	paths, cands := f.acc.Drain()
	lifetimes := f.life.Drain()
	cases, stats, err := f.ident.Drain(ctx, lifetimes)
	if err != nil {
		return nil, fmt.Errorf("core: identify: %w", err)
	}
	agg, err := analysis.NewFromSource(ctx, src, paths, cases, f.cfg.analysisParallelism(), f.cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate: %w", err)
	}
	return &Run{
		Config:     f.cfg,
		World:      world,
		Paths:      paths,
		Candidates: cands,
		Cases:      cases,
		Stats:      stats,
		Analysis:   agg,
		Lifetimes:  lifetimes,
	}, nil
}
