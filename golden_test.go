package crumbcruncher_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"crumbcruncher"
)

// goldenMetrics pins what a seed computes: the full SHA-256 of
// WriteMetricsJSON for SmallConfig at each world seed. Equal to
// `crumbcruncher -small -seed N -metrics | sha256sum`. A deliberate
// change of output must update these values (the test prints the new
// ones) and say so in CHANGES.md.
var goldenMetrics = []struct {
	seed   int64
	digest string
}{
	{1, "b107aa5c15ab27ab718ffd44edf280721a236760c7a71809406f0829624f95ce"},
	{2, "5e306c3422168ecbeff2e836956ef0be78e71bd9b2b4ec26e24b25c2d913e328"},
	{3, "1f8a64fe4d4e44a84546a41021c89adbd96e0e730753ba9b9ad10b1d954581c6"},
}

func metricsDigest(t *testing.T, run *crumbcruncher.Run) string {
	t.Helper()
	var b strings.Builder
	if err := crumbcruncher.WriteMetricsJSON(&b, run); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestGoldenMetricsDigests checks every seed's metrics digest for a
// live run at Parallelism 1, 4 and 16, and for the same run saved to
// the line and the segment backend and re-analysed from the store.
func TestGoldenMetricsDigests(t *testing.T) {
	ctx := context.Background()
	for _, g := range goldenMetrics {
		seed, want := g.seed, g.digest
		check := func(what string, got string) {
			t.Helper()
			if got != want {
				t.Errorf("seed %d %s: metrics digest %s, want %s", seed, what, got, want)
			}
		}
		cfg := crumbcruncher.SmallConfig()
		cfg.World.Seed = seed
		var base *crumbcruncher.Run
		for _, par := range []int{1, 4, 16} {
			pcfg := cfg
			pcfg.Parallelism = par
			run, err := crumbcruncher.NewRunner(pcfg).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			check("parallelism "+strconv.Itoa(par), metricsDigest(t, run))
			if par == 1 {
				base = run
			}
		}

		dir := t.TempDir()
		for _, name := range []string{"crawl.json", "crawl.crumbs"} {
			path := filepath.Join(dir, name)
			if err := crumbcruncher.SaveRunStore(path, base); err != nil {
				t.Fatalf("%s: save: %v", name, err)
			}
			st, err := crumbcruncher.OpenRunStore(path)
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			stored, err := crumbcruncher.AnalyzeStore(ctx, st)
			if err != nil {
				t.Fatalf("%s: analyze: %v", name, err)
			}
			rerun, err := crumbcruncher.NewRunner(stored.Config).Reanalyze(ctx, stored)
			if err != nil {
				t.Fatalf("%s: reanalyze: %v", name, err)
			}
			check(name+" reanalyzed", metricsDigest(t, rerun))
			if err := st.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
		}
	}
}
