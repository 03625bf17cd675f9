package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runstore"
)

// phase names the harness call a decode happened inside, so each call's
// self time can exclude the decoding it triggered.
type phase int

const (
	phaseAnalyze phase = iota // crumbcruncher.AnalyzeStore
	phaseMetrics              // crumbcruncher.WriteMetricsJSON
	phaseRender               // crumbcruncher.WriteReport
	numPhases
)

// storeCounts is what a countingStore saw: full cursor passes, point
// reads, walks returned and the time spent decoding them.
type storeCounts struct {
	passes, gets, walks int
	decode              time.Duration
	phase               [numPhases]time.Duration
}

// countingStore wraps a RunStore handed to AnalyzeStore. It counts Iter
// and Get calls and walks returned, and times each Cursor.Next and Get
// as a runstore span under the harness call in progress. Only traced
// operations use it.
type countingStore struct {
	runstore.Store
	mu     sync.Mutex
	c      storeCounts
	cur    phase
	parent *Span
}

// enter attributes later decodes to phase p, under span parent.
func (s *countingStore) enter(p phase, parent *Span) {
	s.mu.Lock()
	s.cur, s.parent = p, parent
	s.mu.Unlock()
}

func (s *countingStore) timed(name string, fn func() (*crawler.Walk, error)) (*crawler.Walk, error) {
	s.mu.Lock()
	parent := s.parent
	s.mu.Unlock()
	sp := parent.Child("runstore", name)
	t0 := time.Now()
	w, err := fn()
	d := time.Since(t0)
	sp.End()
	s.mu.Lock()
	s.c.decode += d
	s.c.phase[s.cur] += d
	if w != nil {
		s.c.walks++
	}
	s.mu.Unlock()
	return w, err
}

func (s *countingStore) Get(idx int) (*crawler.Walk, error) {
	s.mu.Lock()
	s.c.gets++
	s.mu.Unlock()
	return s.timed("Store.Get", func() (*crawler.Walk, error) { return s.Store.Get(idx) })
}

func (s *countingStore) Iter() runstore.Cursor {
	s.mu.Lock()
	s.c.passes++
	s.mu.Unlock()
	return &countingCursor{Cursor: s.Store.Iter(), s: s}
}

func (s *countingStore) counts() storeCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

type countingCursor struct {
	runstore.Cursor
	s *countingStore
}

func (c *countingCursor) Next() (*crawler.Walk, error) {
	return c.s.timed("Cursor.Next", c.Cursor.Next)
}

// reanalyzeResult is one pass of the crumbreport path over a store.
type reanalyzeResult struct {
	metrics                         []byte
	walks                           int
	open, analyze, metricsT, render time.Duration
	counts                          storeCounts // zero unless traced
}

// reanalyzeOp is the store-reanalyze operation: OpenRunStore →
// AnalyzeStore → metrics JSON → text report, the path cmd/crumbreport
// takes. With a non-nil root span it runs the store through a
// countingStore and records a span around every call.
func reanalyzeOp(ctx context.Context, root *Span, path string) (reanalyzeResult, error) {
	var res reanalyzeResult
	t0 := time.Now()
	sp := root.Child("runstore", "OpenRunStore")
	st, err := crumbcruncher.OpenRunStore(path)
	sp.End()
	res.open = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("open run store: %w", err)
	}
	defer st.Close()
	var rs crumbcruncher.RunStore = st
	var cs *countingStore
	if root != nil {
		cs = &countingStore{Store: st}
		rs = cs
	}
	call := func(p phase, layer, name string, fn func() error) (time.Duration, error) {
		sp := root.Child(layer, name)
		if cs != nil {
			cs.enter(p, sp)
		}
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.End()
		return d, err
	}
	var run *crumbcruncher.Run
	res.analyze, err = call(phaseAnalyze, "core", "AnalyzeStore", func() (err error) {
		run, err = crumbcruncher.AnalyzeStore(ctx, rs)
		return err
	})
	if err != nil {
		return res, fmt.Errorf("analyze store: %w", err)
	}
	var mbuf, rbuf bytes.Buffer
	res.metricsT, err = call(phaseMetrics, "report", "WriteMetricsJSON", func() error {
		return crumbcruncher.WriteMetricsJSON(&mbuf, run)
	})
	if err != nil {
		return res, fmt.Errorf("metrics: %w", err)
	}
	res.render, _ = call(phaseRender, "report", "WriteReport", func() error {
		crumbcruncher.WriteReport(&rbuf, run)
		return nil
	})
	if rbuf.Len() == 0 {
		return res, fmt.Errorf("empty report")
	}
	res.metrics = mbuf.Bytes()
	res.walks = run.Analysis.WalkCount()
	if cs != nil {
		res.counts = cs.counts()
	}
	return res, nil
}
