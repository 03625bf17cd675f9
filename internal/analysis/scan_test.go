package analysis

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"crumbcruncher/internal/crawler"
)

// countingSource counts ForEachWalk passes over src; with fail set, a
// pass returns fail before delivering any walk.
type countingSource struct {
	src    WalkSource
	passes atomic.Int32
	fail   error
}

func (c *countingSource) WalkCount() int { return c.src.WalkCount() }

func (c *countingSource) ForEachWalk(fn func(*crawler.Walk) error) error {
	c.passes.Add(1)
	if c.fail != nil {
		return c.fail
	}
	return c.src.ForEachWalk(fn)
}

// rebuild re-runs NewFromSource over src with a's paths and cases.
func rebuild(t *testing.T, a *Analysis, src WalkSource) *Analysis {
	t.Helper()
	b, err := NewFromSource(context.Background(), src, a.paths, a.cases, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFigureScanOnce has goroutines read every walk-derived figure of
// one Analysis at once: the source is replayed exactly once, and every
// reader sees the same figures.
func TestFigureScanOnce(t *testing.T) {
	base, _ := dsWithRecords(t)
	src := &countingSource{src: base.Source()}
	a := rebuild(t, base, src)
	if n := src.passes.Load(); n != 0 {
		t.Fatalf("NewFromSource replayed the source %d times; the scan must wait for first use", n)
	}
	type figures struct {
		Failure   FailureRates
		Res       ResilienceStats
		Receivers any
		Sources   map[TokenSource]int
		ByStep    []StepFailureRow
		Steps     int
		Err       error
	}
	const readers = 8
	got := make([]figures, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = figures{a.FailureRates(), a.Resilience(), a.ThirdPartyReceivers(10),
				a.StorageSourceBreakdown(), a.FailuresByStep(), a.StepCount(), a.Err()}
		}(i)
	}
	wg.Wait()
	if n := src.passes.Load(); n != 1 {
		t.Fatalf("source replayed %d times, want 1", n)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Fatalf("reader %d saw different figures:\n%+v\n%+v", i, got[i], got[0])
		}
	}
	f := got[0]
	if f.Err != nil || f.Steps != 1 || f.Sources[SourceCookie] != 1 || len(f.ByStep) != 1 {
		t.Fatalf("figures = %+v", f)
	}
	// Callers own the returned map.
	f.Sources[SourceCookie] = 99
	if a.StorageSourceBreakdown()[SourceCookie] != 1 {
		t.Fatal("StorageSourceBreakdown exposes the scan's own map")
	}
}

// TestFigureScanError checks that a failed replay is kept, not retried
// and not hidden: Err reports it, and a case whose walk was never read
// counts as query-parameters-only.
func TestFigureScanError(t *testing.T) {
	base, cases := dsWithRecords(t)
	boom := errors.New("replay failed")
	src := &countingSource{src: base.Source(), fail: boom}
	a := rebuild(t, base, src)
	if err := a.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
	if got := a.StorageSourceBreakdown(); got[SourceQueryOnly] != len(cases) {
		t.Fatalf("breakdown after a failed scan = %v", got)
	}
	if fr := a.FailureRates(); fr != (FailureRates{}) {
		t.Fatalf("failure rates over no walks = %+v", fr)
	}
	if n := src.passes.Load(); n != 1 {
		t.Fatalf("source replayed %d times, want 1", n)
	}
}
