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
// contract: each ForEachWalk is one cursor pass over the store.
type storeSource struct{ st runstore.Store }

func (s storeSource) WalkCount() int { return s.st.Walks() }

func (s storeSource) ForEachWalk(fn func(*crawler.Walk) error) error {
	cur := s.st.Iter()
	defer cur.Close()
	for {
		w, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(w); err != nil {
			return err
		}
	}
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
	return AnalyzeSource(ctx, cfg, world, storeSource{st: st})
}

// AnalyzeSource runs the post-crawl pipeline over any walk source — a
// run store, a Dataset, or the source of a previously analysed
// store-backed run: each walk streams through token extraction,
// lifetime scanning and UID grouping exactly as the live streaming
// engine feeds them. That is the first of exactly two passes over src:
// the second is the analysis's figure scan, run once on first use and
// shared by every walk-derived figure (a failed replay surfaces through
// Analysis.Err). Results are byte-identical to AnalyzeContext over the
// decoded dataset, because both paths fold the same walks in the same
// index order. The returned Run has a nil Dataset.
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
