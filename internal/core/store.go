package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/web"
)

// storeSource adapts a runstore.Store to the analysis.WalkSource
// contract. Its first complete pass — the feed pass AnalyzeSource makes
// anyway — also tallies step totals and outcome counts, so the figure
// code never re-reads the store for counters.
type storeSource struct {
	st       runstore.Store
	steps    int
	outcomes map[crawler.StepOutcome]int // nil until the first pass completes
}

func (s *storeSource) WalkCount() int { return s.st.Walks() }
func (s *storeSource) StepCount() int { return s.steps }

func (s *storeSource) OutcomeCounts() map[crawler.StepOutcome]int { return s.outcomes }

func (s *storeSource) ForEachWalk(fn func(*crawler.Walk) error) error {
	var (
		steps    int
		outcomes map[crawler.StepOutcome]int
	)
	if s.outcomes == nil {
		outcomes = map[crawler.StepOutcome]int{}
	}
	cur := s.st.Iter()
	defer cur.Close()
	for {
		w, err := cur.Next()
		if errors.Is(err, io.EOF) {
			if outcomes != nil {
				s.steps, s.outcomes = steps, outcomes
			}
			return nil
		}
		if err != nil {
			return err
		}
		if outcomes != nil {
			steps += len(w.Steps)
			for _, st := range w.Steps {
				outcomes[st.Outcome]++
			}
		}
		if err := fn(w); err != nil {
			return err
		}
	}
}

func (s *storeSource) Walk(idx int) *crawler.Walk {
	w, err := s.st.Get(idx)
	if err != nil {
		return nil
	}
	return w
}

// AnalyzeStore runs the post-crawl pipeline over a stored run by
// cursor: see AnalyzeSource. The decoded dataset is never resident all
// at once — memory is O(paths + candidates + one segment) — so
// 100k-walk stores analyse within a laptop-class budget.
//
// The returned Run has a nil Dataset; every consumer in the tree
// (metrics, report, Reidentify, MissedRefererTransfers) reads walk
// statistics through Run.Analysis instead.
func AnalyzeStore(ctx context.Context, cfg Config, world *web.World, st runstore.Store) (*Run, error) {
	return AnalyzeSource(ctx, cfg, world, &storeSource{st: st})
}

// AnalyzeSource runs the post-crawl pipeline over any walk source — a
// run store, a Dataset, or the source of a previously analysed
// store-backed run: each walk streams through token extraction,
// lifetime scanning and UID grouping exactly as the live streaming
// engine feeds them, and the figure aggregation replays src on demand.
// Results are byte-identical to AnalyzeContext over the decoded
// dataset, because both paths fold the same walks in the same index
// order. The returned Run has a nil Dataset.
func AnalyzeSource(ctx context.Context, cfg Config, world *web.World, src analysis.WalkSource) (*Run, error) {
	feed := newWalkFeed(cfg, src.WalkCount())
	sp := cfg.Telemetry.StartSpan("core", "analyze_store")
	err := src.ForEachWalk(func(w *crawler.Walk) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		feed.add(w)
		return nil
	})
	if err != nil {
		sp.EndErr(err)
		return nil, fmt.Errorf("core: analyze store: %w", err)
	}
	run, err := feed.drain(ctx, world, src)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.End()
	return run, nil
}
