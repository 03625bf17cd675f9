package crumbcruncher_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"crumbcruncher"
)

func metricsBytes(t *testing.T, run *crumbcruncher.Run) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := crumbcruncher.WriteMetricsJSON(&b, run); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStreamingCancellation cancels a streaming run mid-crawl and checks
// that the engine drains instead of leaking: the analysis workers and
// queue gauges must both return to zero, and every walk handed to the
// queue must have been analyzed.
func TestStreamingCancellation(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 2
	cfg.Walks = 30
	cfg.Parallelism = 4

	tel := crumbcruncher.NewTelemetry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	r := crumbcruncher.NewRunner(cfg,
		crumbcruncher.WithTelemetry(tel),
		crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
			if p.WalksDone >= 3 {
				once.Do(cancel)
			}
		}),
	)

	run, err := r.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if run != nil {
		t.Fatal("cancelled run returned a non-nil result")
	}

	if v := tel.Gauge("core.stream_workers").Value(); v != 0 {
		t.Errorf("leaked analysis workers: gauge core.stream_workers = %d", v)
	}
	if v := tel.Gauge("core.stream_queue_depth").Value(); v != 0 {
		t.Errorf("walks stuck in queue: gauge core.stream_queue_depth = %d", v)
	}
	analyzed := tel.Counter("core.stream_walks_analyzed").Value()
	sunk := tel.Counter("crawler.walks_done").Value() + tel.Counter("crawler.walks_skipped").Value()
	if analyzed != sunk {
		t.Errorf("analyzed %d walks but the crawl produced %d", analyzed, sunk)
	}
}

// TestStreamingResumeUsesSidecar interrupts a checkpointed streaming run,
// resumes it, and checks that (a) the resumed run restores per-walk
// analysis state from the checkpoint's sidecar instead of recomputing it
// and (b) the final metrics are byte-identical to an uninterrupted run.
func TestStreamingResumeUsesSidecar(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 2
	cfg.Walks = 20
	cfg.Parallelism = 1

	ref, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := metricsBytes(t, ref)

	ckptPath := filepath.Join(t.TempDir(), "ckpt.jsonl")

	ckpt, err := crumbcruncher.OpenCheckpoint(ckptPath, cfg.World.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = crumbcruncher.NewRunner(cfg,
		crumbcruncher.WithCheckpoint(ckpt),
		crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
			if p.WalksAnalyzed >= 5 {
				once.Do(cancel)
			}
		}),
	).Run(ctx)
	if err == nil {
		t.Fatal("interrupted run returned no error")
	}
	ckpt.Close()

	ckpt, err = crumbcruncher.OpenCheckpoint(ckptPath, cfg.World.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if ckpt.CompletedCount() == 0 {
		t.Fatal("checkpoint recorded no walks before the interrupt")
	}
	tel := crumbcruncher.NewTelemetry()
	run, err := crumbcruncher.NewRunner(cfg,
		crumbcruncher.WithCheckpoint(ckpt),
		crumbcruncher.WithTelemetry(tel),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if v := tel.Counter("core.stream_walks_restored").Value(); v == 0 {
		t.Error("resume recomputed every walk: counter core.stream_walks_restored = 0")
	}
	if got := metricsBytes(t, run); !bytes.Equal(got, want) {
		t.Error("resumed run's metrics differ from an uninterrupted run")
	}
}

// TestRunnerOptions checks that functional options land in the runner's
// effective config and that the variadic constructor leaves the caller's
// Config untouched.
func TestRunnerOptions(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	tel := crumbcruncher.NewTelemetry()
	rp := crumbcruncher.DefaultRetryPolicy()
	rp.MaxAttempts = 7

	r := crumbcruncher.NewRunner(cfg,
		crumbcruncher.WithTelemetry(tel),
		crumbcruncher.WithRetryPolicy(rp),
	)
	got := r.Config()
	if got.Telemetry != tel {
		t.Error("WithTelemetry did not reach the runner config")
	}
	if got.Retry.MaxAttempts != 7 {
		t.Error("WithRetryPolicy did not reach the runner config")
	}
	if cfg.Telemetry != nil || cfg.Retry.MaxAttempts != 0 {
		t.Error("NewRunner mutated the caller's Config")
	}
}

// TestWorkStealingCrawlDeterminism pins the crawl's work-stealing
// dispatch (a fixed worker pool claiming walk indices from a shared
// counter): BatchAnalysis runs — the crawl finishes before any walk is
// analysed — must produce byte-identical metrics JSON at parallelism
// 1, 4 and 16.
func TestWorkStealingCrawlDeterminism(t *testing.T) {
	base := crumbcruncher.SmallConfig()
	base.World.Seed = 5
	base.Walks = 36
	base.BatchAnalysis = true

	var ref []byte
	for _, par := range []int{1, 4, 16} {
		cfg := base
		cfg.Parallelism = par
		run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got := metricsBytes(t, run)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Errorf("parallelism %d: metrics differ from parallelism 1", par)
		}
	}
}
