package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/runstore"
)

// TestOutputCheckFires proves the store-reanalyze output check is live:
// re-analysing a copy of the store with one walk altered must fail every
// operation, an error_rate of 1.
func TestOutputCheckFires(t *testing.T) {
	ctx := context.Background()
	cfg := core.SmallConfig()
	cfg.Parallelism = parallelism
	s := &storeReanalyze{cfg: cfg, work: t.TempDir()}
	if _, err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if win := s.measure(ctx, 100*time.Millisecond, nil); win.failed() != 0 {
		t.Fatalf("unaltered store: %d of %d operations failed", win.failed(), win.attempted())
	}

	altered := filepath.Join(s.work, "altered.crumbs")
	if err := alterOneWalk(s.path, altered); err != nil {
		t.Fatal(err)
	}
	s.path = altered
	win := s.measure(ctx, 100*time.Millisecond, nil)
	if win.attempted() == 0 || win.failed() != win.attempted() {
		t.Fatalf("altered store: error_rate %d/%d, want 1", win.failed(), win.attempted())
	}
}

// alterOneWalk copies the store at src to dst, dropping the last step
// of the first walk that has one.
func alterOneWalk(src, dst string) error {
	in, err := crumbcruncher.OpenRunStore(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := runstore.Create(dst, runstore.BackendSegment, in.Manifest())
	if err != nil {
		return err
	}
	cur := in.Iter()
	defer cur.Close()
	done := false
	for {
		w, err := cur.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			out.Close()
			return err
		}
		if !done && len(w.Steps) > 0 {
			w.Steps = w.Steps[:len(w.Steps)-1]
			done = true
		}
		if err := out.Append(w); err != nil {
			out.Close()
			return err
		}
	}
	if !done {
		out.Close()
		return errors.New("no walk with steps to alter")
	}
	if err := out.Finalize(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the metrics, with the units, that the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(window{samples: []sample{{lat: time.Second, walks: 1, ok: true}}, elapsed: time.Second}, []float64{1}, 1)
	if len(decl.EndToEnd) != len(e2e.Metrics) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark prints %d", len(decl.EndToEnd), len(e2e.Metrics))
	}
	for _, m := range decl.EndToEnd {
		if got, ok := e2e.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, layerMetrics has %d", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range decl.PerLayer {
		if m.Name != layerMetrics[i].Name || m.Unit != layerMetrics[i].Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), layerMetrics %s (%s)", i, m.Name, m.Unit, layerMetrics[i].Name, layerMetrics[i].Unit)
		}
	}
}

func TestSelfTimesReconcile(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 1, Layer: "bench", Name: "op", T0: 0, T1: 100},
		{ID: 2, Parent: 1, Trace: 1, Layer: "core", Name: "a", T0: 10, T1: 60},
		{ID: 3, Parent: 2, Trace: 1, Layer: "crawler", Name: "b", T0: 10, T1: 40},
		{ID: 4, Parent: 1, Trace: 1, Layer: "report", Name: "c", T0: 60, T1: 90},
		{ID: 5, Trace: 5, Layer: "bench", Name: "probe", T0: 0, T1: 7},
	}
	st := ComputeSelfTimes(spans, "op")
	want := map[string]time.Duration{"bench": 20, "core": 20, "crawler": 30, "report": 30}
	for l, d := range want {
		if st.Self[l] != d {
			t.Errorf("self[%s] = %d, want %d", l, st.Self[l], d)
		}
	}
	if st.Roots != 1 || st.RootTime != 100 || st.Sum() != st.RootTime {
		t.Errorf("roots %d, root time %d, self sum %d", st.Roots, st.RootTime, st.Sum())
	}
	if !printSelfTimes(io.Discard, "test", st) {
		t.Error("nested spans should reconcile")
	}

	// Overlapping siblings cover one interval once in their parent's
	// self time but count twice in the sum, which must be flagged.
	spans[3].T0 = 30
	if printSelfTimes(io.Discard, "test", ComputeSelfTimes(spans, "op")) {
		t.Error("overlapping siblings should not reconcile")
	}
}
