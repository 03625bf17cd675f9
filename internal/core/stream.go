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
// concurrently: every finished walk is handed through a bounded channel
// to a pool of analysis workers that extract its paths, find its
// candidates, scan its cookie lifetimes and group its tokens, while the
// crawl keeps producing. Only the cross-walk stages (lifetime-index
// merge, deferred classification, ordered reduce, aggregation) wait for
// the last walk.
//
// Determinism: every per-walk product lands in a pre-sized,
// walk-indexed slot and every drain merges those slots in walk-index
// order, so the result is bit-identical to the batch path at any
// parallelism (the same contract as the parallel package).
func executeStreaming(ctx context.Context, cfg Config, world *web.World) (*Run, error) {
	tel := cfg.Telemetry
	reg := tel.Registry()
	par := cfg.analysisParallelism()
	walks := cfg.walkCount(world)

	esp := tel.StartSpan("core", "stream")

	// Resume: adopt per-walk analysis state persisted by a previous,
	// interrupted streaming run. Only walks the checkpoint will actually
	// resume (rather than re-crawl) are eligible — the snapshot is taken
	// before the crawl starts, so the two sets match exactly.
	var sidecar *runio.LineFile
	restored := map[int]tokens.WalkTokens{}
	if cp := cfg.Checkpoint; cp != nil && cp.Path() != "" {
		resumable := map[int]bool{}
		for _, i := range cp.CompletedIndices() {
			resumable[i] = true
		}
		scPath := cp.Path() + ".analysis"
		scOpts := runio.OpenOptions{Tel: tel}
		lf, lines, err := runio.OpenLineFileOpts(scPath, analysisHeader(cfg.World.Seed), scOpts)
		if errors.Is(err, runio.ErrCorrupt) {
			// The sidecar is a pure cache of per-walk analysis state: with
			// the corrupt file quarantined, start a fresh one and recompute
			// the tokens from the checkpointed walks. The run stays
			// byte-identical — only the restore fast path is lost.
			reg.Counter("core.stream_sidecar_errors").Inc()
			lf, lines, err = runio.OpenLineFileOpts(scPath, analysisHeader(cfg.World.Seed), scOpts)
		}
		if err != nil {
			esp.EndErr(err)
			return nil, fmt.Errorf("core: analysis state: %w", err)
		}
		sidecar = lf
		defer sidecar.Close()
		for _, line := range lines {
			var e analysisEntry
			if json.Unmarshal(line, &e) != nil {
				break // schema mismatch in the tail: stop, like a torn write
			}
			if resumable[e.Index] {
				restored[e.Index] = e.Tokens // last entry wins
			}
		}
	}

	feed := newWalkFeed(cfg, walks)

	notify := newProgressNotifier(cfg.OnProgress, walks)
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
				if wt, ok := restored[w.Index]; ok {
					feed.restore(w, wt)
					restoredCtr.Inc()
					sp.Attr("restored", "true")
				} else {
					wt = feed.add(w)
					if sidecar != nil && !w.Skipped {
						if err := sidecar.Append(analysisEntry{Index: w.Index, Tokens: wt}); err != nil {
							sidecarErrs.Inc()
						}
					}
				}
				sp.End()
				analyzed.Inc()
				notify.update(func(p *Progress) {
					p.WalksAnalyzed++
					p.QueueDepth--
				})
			}
		}()
	}

	ccfg := cfg.crawlConfig(world)
	ccfg.WalkSink = func(w *crawler.Walk) {
		queueDepth.Add(1)
		notify.update(func(p *Progress) {
			p.WalksDone++
			p.QueueDepth++
		})
		walkCh <- w
	}

	csp := tel.StartSpan("core", "crawl")
	ds, crawlErr := crawler.Crawl(ctx, ccfg)
	// Crawl only returns once every walk goroutine — and with it
	// every WalkSink call — has finished, so the channel can close now.
	// The workers are drained even on crawl failure: a cancelled run
	// must not leak analysis goroutines.
	close(walkCh)
	wwg.Wait()
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

// walkFeed is the incremental post-crawl pipeline: every walk pushed
// into it goes through token extraction, cookie-lifetime scanning and
// UID grouping on its own, and one drain merges the per-walk products
// in walk-index order and runs the cross-walk stages. The live crawl's
// WalkSink workers and the store cursor (AnalyzeSource) both feed one,
// which is why a store re-analysis reproduces the live run byte for
// byte.
type walkFeed struct {
	cfg   Config
	acc   *tokens.Accumulator
	life  *uid.LifetimeAccumulator
	ident *uid.StreamIdentifier
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
		acc:   tokens.NewAccumulator(cfg.World.Seed, walks, crawler.AllCrawlers, cfg.Telemetry),
		life:  uid.NewLifetimeAccumulator(walks),
		ident: uid.NewStreamIdentifier(walks, opt),
	}
}

// add folds one walk into the feed and returns its extracted tokens.
// Calls for distinct walk indices may run concurrently.
func (f *walkFeed) add(w *crawler.Walk) tokens.WalkTokens {
	f.life.AddWalk(w)
	wt := f.acc.AddWalk(w)
	f.ident.AddWalk(w.Index, wt.Candidates)
	return wt
}

// restore is add with the walk's tokens taken from a resume sidecar
// instead of being extracted again.
func (f *walkFeed) restore(w *crawler.Walk, wt tokens.WalkTokens) {
	f.life.AddWalk(w)
	f.acc.Restore(w.Index, wt)
	f.ident.AddWalk(w.Index, wt.Candidates)
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
