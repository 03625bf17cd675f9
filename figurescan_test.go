package crumbcruncher_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"crumbcruncher"
	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/stats"
)

// passCountingStore wraps a RunStore and counts full cursor passes
// (Iter) and point reads (Get). With failIter > 0, the failIter-th
// cursor returns errReplay after failAfter walks.
type passCountingStore struct {
	runstore.Store
	mu        sync.Mutex
	passes    int
	gets      int
	failIter  int
	failAfter int
}

var errReplay = errors.New("injected store read failure")

func (s *passCountingStore) Iter() runstore.Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.passes++
	cur := s.Store.Iter()
	if s.passes == s.failIter {
		return &failingCursor{Cursor: cur, left: s.failAfter}
	}
	return cur
}

func (s *passCountingStore) Get(idx int) (*crawler.Walk, error) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	return s.Store.Get(idx)
}

func (s *passCountingStore) counts() (passes, gets int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passes, s.gets
}

// failingCursor delivers left walks, then fails.
type failingCursor struct {
	runstore.Cursor
	left int
}

func (c *failingCursor) Next() (*crawler.Walk, error) {
	if c.left == 0 {
		return nil, errReplay
	}
	c.left--
	return c.Cursor.Next()
}

// figureScanFixture is one SmallConfig crawl with its in-memory
// metrics and report. It is built once per test binary, so -count=N
// repeats stay cheap.
type figureScanFixture struct {
	run     *crumbcruncher.Run
	metrics []byte
	report  string
	err     error
}

var (
	figureScanOnce sync.Once
	figureScan     figureScanFixture
)

// transportLine matches the live-only §3.3 transport line: a store
// re-analysis rebuilds the world without crawling it, so its report
// omits the line by design.
var transportLine = regexp.MustCompile(`(?m)^Transport: .*\n\n`)

func figureScanData(t *testing.T) *figureScanFixture {
	t.Helper()
	figureScanOnce.Do(func() {
		f := &figureScan
		cfg := crumbcruncher.SmallConfig()
		cfg.World.Seed = 11
		cfg.Walks = 12
		f.run, f.err = crumbcruncher.NewRunner(cfg).Run(context.Background())
		if f.err != nil {
			return
		}
		var m, r bytes.Buffer
		if f.err = crumbcruncher.WriteMetricsJSON(&m, f.run); f.err != nil {
			return
		}
		crumbcruncher.WriteReport(&r, f.run)
		f.metrics = m.Bytes()
		f.report = transportLine.ReplaceAllString(r.String(), "")
	})
	if figureScan.err != nil {
		t.Fatal(figureScan.err)
	}
	return &figureScan
}

// openSaved saves the fixture run to a fresh store of the given
// backend ("line" or "segment") and opens it behind a pass counter.
func openSaved(t *testing.T, fx *figureScanFixture, backend string) *passCountingStore {
	t.Helper()
	name := map[string]string{"line": "crawl.walks", "segment": "crawl.crumbs"}[backend]
	path := filepath.Join(t.TempDir(), name)
	if err := crumbcruncher.SaveRunStore(path, fx.run); err != nil {
		t.Fatal(err)
	}
	st, err := crumbcruncher.OpenRunStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &passCountingStore{Store: st}
}

// TestFigureScanPassCount pins the cost of the crumbreport path over a
// stored run: AnalyzeStore, WriteMetricsJSON and WriteReport together
// make exactly two cursor passes over the store — the analysis feed and
// the one memoized figure scan — and no point reads, on both backends.
// The bytes match the same run analysed from its Dataset.
func TestFigureScanPassCount(t *testing.T) {
	fx := figureScanData(t)
	for _, backend := range []string{"line", "segment"} {
		t.Run(backend, func(t *testing.T) {
			cs := openSaved(t, fx, backend)
			run, err := crumbcruncher.AnalyzeStore(context.Background(), cs)
			if err != nil {
				t.Fatal(err)
			}
			var m, r bytes.Buffer
			if err := crumbcruncher.WriteMetricsJSON(&m, run); err != nil {
				t.Fatal(err)
			}
			crumbcruncher.WriteReport(&r, run)
			if passes, gets := cs.counts(); passes != 2 || gets != 0 {
				t.Errorf("store reads: %d passes, %d gets; want 2 passes, 0 gets", passes, gets)
			}
			if !bytes.Equal(m.Bytes(), fx.metrics) {
				t.Error("store-analysed metrics differ from the in-memory run")
			}
			if r.String() != fx.report {
				t.Errorf("store-analysed report differs from the in-memory run:\n%s", firstDiff(r.String(), fx.report))
			}
		})
	}
}

// TestFigureScanReplayError checks that a store read failing during the
// figure scan is reported, not folded into figures over part of the
// walks: WriteMetricsJSON returns it and WriteReport prints it.
func TestFigureScanReplayError(t *testing.T) {
	fx := figureScanData(t)
	cs := openSaved(t, fx, "segment")
	cs.failIter, cs.failAfter = 2, 5
	run, err := crumbcruncher.AnalyzeStore(context.Background(), cs)
	if err != nil {
		t.Fatal(err) // the first pass is healthy
	}
	var m, r bytes.Buffer
	if err := crumbcruncher.WriteMetricsJSON(&m, run); !errors.Is(err, errReplay) {
		t.Fatalf("WriteMetricsJSON = %v, want the replay error", err)
	}
	if m.Len() != 0 {
		t.Errorf("WriteMetricsJSON wrote %d bytes of partial metrics", m.Len())
	}
	crumbcruncher.WriteReport(&r, run)
	if !strings.Contains(r.String(), errReplay.Error()) {
		t.Error("WriteReport does not mention the replay error")
	}
	if passes, _ := cs.counts(); passes != 2 {
		t.Errorf("passes = %d, want 2: a failed scan must not be retried", passes)
	}
}

// TestFigureScanConcurrent has several goroutines read every
// walk-derived figure of one store-backed Analysis at once; the scan
// runs once and every reader sees the same results.
func TestFigureScanConcurrent(t *testing.T) {
	fx := figureScanData(t)
	cs := openSaved(t, fx, "segment")
	run, err := crumbcruncher.AnalyzeStore(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	type figures struct {
		FailureRates analysis.FailureRates
		Resilience   analysis.ResilienceStats
		ThirdParties []stats.Entry
		Sources      map[analysis.TokenSource]int
		ByStep       []analysis.StepFailureRow
		Steps        int
	}
	read := func(a *analysis.Analysis) figures {
		return figures{
			FailureRates: a.FailureRates(),
			Resilience:   a.Resilience(),
			ThirdParties: a.ThirdPartyReceivers(20),
			Sources:      a.StorageSourceBreakdown(),
			ByStep:       a.FailuresByStep(),
			Steps:        a.StepCount(),
		}
	}
	const readers = 8
	got := make([]figures, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = read(run.Analysis)
		}(i)
	}
	wg.Wait()
	want := read(fx.run.Analysis)
	if len(want.ThirdParties) == 0 {
		t.Fatal("fixture has no Figure 6 receivers; the comparison would be vacuous")
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("reader %d saw different figures from the in-memory run:\n%+v\n%+v", i, got[i], want)
		}
	}
	if passes, gets := cs.counts(); passes != 2 || gets != 0 {
		t.Errorf("store reads: %d passes, %d gets; want 2 passes, 0 gets", passes, gets)
	}
}

// firstDiff returns the first differing line of two texts.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "got:  " + al[i] + "\nwant: " + bl[i]
		}
	}
	return "line counts differ"
}
