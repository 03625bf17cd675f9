package crumbcruncher_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crumbcruncher"
)

// TestRunStoreMetricsIdentical pins the RunStore acceptance bar: a
// crawl saved to the line backend and to the segment backend, then
// re-analysed by cursor through AnalyzeStore, reproduces the in-memory
// run's metrics JSON byte for byte — and so does Runner.Reanalyze of
// the store-backed run at analysis parallelism 1, 4 and 16.
func TestRunStoreMetricsIdentical(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 7
	cfg.Walks = 40
	base, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := crumbcruncher.WriteMetricsJSON(&want, base); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := map[string]string{
		"line":    filepath.Join(dir, "crawl.json"),
		"segment": filepath.Join(dir, "crawl.crumbs"),
	}
	for name, path := range paths {
		if err := crumbcruncher.SaveRunStore(path, base); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
	}
	if fi, err := os.Stat(paths["segment"]); err != nil || !fi.IsDir() {
		t.Fatalf("segment store is not a directory: %v %v", fi, err)
	}

	for name, path := range paths {
		st, err := crumbcruncher.OpenRunStore(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if st.Walks() != cfg.Walks {
			t.Fatalf("%s: store holds %d walks, want %d", name, st.Walks(), cfg.Walks)
		}
		run, err := crumbcruncher.AnalyzeStore(context.Background(), st)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		var got strings.Builder
		if err := crumbcruncher.WriteMetricsJSON(&got, run); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: store-analysed metrics diverge from the in-memory run", name)
		}
		for _, par := range []int{1, 4, 16} {
			pcfg := run.Config
			pcfg.Parallelism = par
			rerun, err := crumbcruncher.NewRunner(pcfg).Reanalyze(context.Background(), run)
			if err != nil {
				t.Fatalf("%s: reanalyze par=%d: %v", name, par, err)
			}
			var pgot strings.Builder
			if err := crumbcruncher.WriteMetricsJSON(&pgot, rerun); err != nil {
				t.Fatal(err)
			}
			if pgot.String() != want.String() {
				t.Errorf("%s: metrics diverge at parallelism %d", name, par)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

// TestRunStoreWalkAccess pins random access through the public API: a
// saved run serves any single walk by index without analysis.
func TestRunStoreWalkAccess(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 3
	cfg.Walks = 12
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crawl.crumbs")
	if err := crumbcruncher.SaveRunStore(path, run); err != nil {
		t.Fatal(err)
	}
	st, err := crumbcruncher.OpenRunStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := st.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if w.Index != 7 || len(w.Steps) == 0 {
		t.Fatalf("walk 7 = index %d with %d steps", w.Index, len(w.Steps))
	}
	if _, err := st.Get(99); err == nil {
		t.Fatal("Get(99) on a 12-walk store succeeded")
	}
}

// TestAnalyzeStoreRejectsGappedStore analyses the store a crashed crawl
// leaves when it appends walks as they complete: walks 0, 1 and 5,
// never finalized, so the store counts three walks but holds index 5.
// On either backend the analysis must fail with an error naming the
// index rather than index past its per-walk slots.
func TestAnalyzeStoreRejectsGappedStore(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 3
	cfg.Walks = 6
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"gapped.json", "gapped.crumbs"} {
		path := filepath.Join(dir, name)
		st, err := crumbcruncher.CreateRunStore(path, cfg)
		if err != nil {
			t.Fatalf("%s: create: %v", name, err)
		}
		for _, i := range []int{0, 1, 5} {
			if err := st.Append(run.Dataset.Walks[i]); err != nil {
				t.Fatalf("%s: append walk %d: %v", name, i, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}

		st, err = crumbcruncher.OpenRunStore(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		got, err := crumbcruncher.AnalyzeStore(context.Background(), st)
		if err == nil {
			t.Errorf("%s: analysing a gapped store succeeded (%d walks)", name, got.Analysis.WalkCount())
		} else if !strings.Contains(err.Error(), "walk index 5") {
			t.Errorf("%s: error %q does not name walk index 5", name, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close after analysis: %v", name, err)
		}
	}
}
