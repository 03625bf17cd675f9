// Command perfbench is crumbcruncher's benchmark. It drives one
// workload through the public entry points of the pipeline's layers,
// checks every operation's output against a reference computed on a
// different code path, and prints its metrics. Run it from the
// repository root through its build script:
//
//	bash perfbench/run.sh --workload paper-crawl --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, measured by spans the harness records
// around its calls into each layer and by per-layer probes on the
// workload's own inputs. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// perfbench/README.md for the workloads and the layer map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark workload. setup prepares the inputs and
// the reference outputs; it repeats the part of set-up a user would pay
// on every start and returns each repetition's duration (references and
// warm-up are outside those durations). measure runs operations for d.
// probe fills the per-layer metrics of a traced run.
type workload interface {
	setup(ctx context.Context) ([]time.Duration, error)
	measure(ctx context.Context, d time.Duration, tr *Tracer) window
	probe(ctx context.Context, tr *Tracer, lv layerValues) error
	describe() map[string]any
	close() error
}

// sample is one operation: a run for the batch workloads, a job for
// serve-mixed. ok means it completed and its output matched the
// reference.
type sample struct {
	lat    time.Duration
	walks  int
	ok     bool
	traced bool
}

// tracedRoot opens the root span of the i-th operation of a client in a
// traced run. Half the operations are traced and half run bare, so both
// kinds meet the same conditions and their difference is the tracing
// overhead. The pattern (i + i/4) odd alternates which kind gets the
// fourth operation, the one serve-mixed makes a reanalyze. Untraced runs
// pass a nil tracer and trace nothing.
func tracedRoot(tr *Tracer, i int) *Span {
	if (i+i/4)%2 == 0 {
		return nil
	}
	return tr.Root("bench", "op")
}

// window is the outcome of one measured interval.
type window struct {
	samples []sample
	refused int
	elapsed time.Duration
}

func (w window) attempted() int { return len(w.samples) + w.refused }

func (w window) failed() int {
	n := w.refused
	for _, s := range w.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// throughput returns walks and operations per second, counting only
// operations that completed with correct output.
func (w window) throughput() (walksPerS, opsPerS float64) {
	walks, ops := 0, 0
	for _, s := range w.samples {
		if s.ok {
			walks += s.walks
			ops++
		}
	}
	sec := w.elapsed.Seconds()
	return float64(walks) / sec, float64(ops) / sec
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(seed int64, work string) workload{
	wlPaper: func(s int64, w string) workload { return newPaperCrawl(s, w) },
	wlStore: func(s int64, w string) workload { return newStoreReanalyze(s, w) },
	wlServe: func(s int64, w string) workload { return newServeMixed(s, w) },
}

func main() {
	name := flag.String("workload", "", "paper-crawl, store-reanalyze or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-crawl|store-reanalyze|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*name, mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, mk func(int64, string) workload, seed int64, d time.Duration, traced bool) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	out := ".bench_build"
	work := filepath.Join(out, "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	calBefore := calibrate()
	ctx := context.Background()
	w := mk(seed, work)
	reps, err := w.setup(ctx)
	if err != nil {
		w.close() //nolint:errcheck // already failing
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	var setup []float64
	for _, r := range reps {
		setup = append(setup, r.Seconds())
	}

	var res result
	var report strings.Builder
	info := runInfo(name, seed, d, traced)
	if !traced {
		mem := startMemSampler()
		win := w.measure(ctx, d, nil)
		res = endToEnd(win, setup, mem.stop())
		describeWindow(&report, "measured", win)
	} else {
		// Per-layer numbers come only from this run.
		tr := NewTracer()
		win := w.measure(ctx, d, tr)
		lv := layerValues{}
		if err := w.probe(ctx, tr, lv); err != nil {
			w.close() //nolint:errcheck // already failing
			return fmt.Errorf("%s probes: %w", name, err)
		}
		res = result{Attempted: win.attempted(), Failed: win.failed(), Metrics: map[string]metric{}}
		for _, m := range layerMetrics {
			res.Metrics[m.Name] = metric{Value: lv[m.Name], Unit: m.Unit}
		}
		describeWindow(&report, "measured, every second operation traced", win)
		if !traceSummary(&report, tr, win) {
			res.Failed++
			res.Attempted++
		}
		path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := tr.WriteJSONL(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(&report, "spans written to %s\n", path)
		printLayerMap(&report, lv)
	}
	if err := w.close(); err != nil {
		return fmt.Errorf("%s shutdown: %w", name, err)
	}
	res.Correct = res.Failed == 0
	info["machine_calib_ms"] = []float64{calBefore, calibrate()}
	info["workload_info"] = w.describe()
	info["attempted"], info["failed"] = res.Attempted, res.Failed
	info["error_rate"] = errorRate(res)

	fmt.Print(report.String())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("error_rate %.4g ratio (%d failed of %d attempted)\n", errorRate(res), res.Failed, res.Attempted)
	ctxLine, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Printf("context %s\n", ctxLine)
	if err := saveResult(out, name, seed, traced, info, res); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func errorRate(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// endToEnd turns an untraced window into the end-to-end metrics.
func endToEnd(win window, setup []float64, peakMB float64) result {
	walksPerS, opsPerS := win.throughput()
	var lat []float64
	for _, s := range win.samples {
		lat = append(lat, float64(s.lat.Nanoseconds())/1e6)
	}
	return result{
		Attempted: win.attempted(),
		Failed:    win.failed(),
		Metrics: map[string]metric{
			"setup_s":     {median(setup), "s"},
			"walks_per_s": {walksPerS, "walks/s"},
			"jobs_per_s":  {opsPerS, "jobs/s"},
			"job_p50_ms":  {quantile(lat, 0.5), "ms"},
			"job_p90_ms":  {quantile(lat, 0.9), "ms"},
			"peak_rss_mb": {peakMB, "MB"},
		},
	}
}

func describeWindow(w io.Writer, title string, win window) {
	walksPerS, opsPerS := win.throughput()
	fmt.Fprintf(w, "%s: %d operations in %.2fs (%d refused), %.3f walks/s, %.4f jobs/s\n",
		title, win.attempted(), win.elapsed.Seconds(), win.refused, walksPerS, opsPerS)
	if len(win.samples) < 100 {
		fmt.Fprintf(w, "  note: %d latency samples; the p90 has fewer than ten samples beyond it\n", len(win.samples))
	}
}

// traceSummary prints the per-layer self times of the traced
// operations and of the probes, and the tracing overhead. It reports
// whether the self times reconcile with their roots.
func traceSummary(w io.Writer, tr *Tracer, win window) bool {
	spans := tr.Spans()
	ok := printSelfTimes(w, "of measured operations", ComputeSelfTimes(spans, "op"))
	ok = printSelfTimes(w, "of layer probes", ComputeSelfTimes(spans, "probe")) && ok
	pw, pj := win.kindThroughput(false)
	tw, tj := win.kindThroughput(true)
	fmt.Fprintf(w, "tracing overhead: walks/s %.3f untraced vs %.3f traced (%+.2f%%), jobs/s %.4f vs %.4f (%+.2f%%)\n",
		pw, tw, 100*relDiff(tw, pw), pj, tj, 100*relDiff(tj, pj))
	return ok
}

// kindThroughput is the throughput of the traced or of the untraced
// operations of an interleaved window. By Little's law the window's
// mean concurrency is the summed latency over the elapsed time, and
// each kind completes concurrency / mean latency operations per second.
func (w window) kindThroughput(traced bool) (walksPerS, opsPerS float64) {
	var all, kind time.Duration
	walks, ops := 0, 0
	for _, s := range w.samples {
		all += s.lat
		if s.traced != traced {
			continue
		}
		kind += s.lat
		if s.ok {
			walks += s.walks
			ops++
		}
	}
	if kind == 0 || w.elapsed == 0 {
		return 0, 0
	}
	conc := all.Seconds() / w.elapsed.Seconds()
	return conc * float64(walks) / kind.Seconds(), conc * float64(ops) / kind.Seconds()
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b
}

// printLayerMap prints each per-layer metric with the end-to-end metric
// it should move and where.
func printLayerMap(w io.Writer, lv layerValues) {
	fmt.Fprintln(w, "layer map (metric = value unit | moves | on | no change on):")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-28s = %-12.6g %-5s | %s | %s | %s\n", m.Name, lv[m.Name], m.Unit, m.Moves, m.On, m.NoChange)
	}
}

// runInfo is the self-description every result carries: machine, Go,
// code identity and workload parameters.
func runInfo(name string, seed int64, d time.Duration, traced bool) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"seconds":       d.Seconds(),
		"trace":         traced,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"vcs_modified":  modified,
		"source_digest": sourceDigest("."),
	}
}

// sourceDigest hashes the repository's Go sources and module files
// (outside the benchmark and build directories), so a result names the
// code it measured even where no VCS metadata exists.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error { //nolint:errcheck // best effort
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// calibrate times a fixed job in milliseconds: SHA-256 over 32 MiB,
// split evenly across GOMAXPROCS goroutines so that every CPU the
// workloads use takes part. Taken before set-up and after the
// measurement, it shows when the machine itself was slower, which on a
// shared host moves every metric of a run together. A full collection
// first keeps the program's own garbage out of the timing.
func calibrate() float64 {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	part := len(calibrationInput) / n
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(b []byte) {
			defer wg.Done()
			sha256.Sum256(b)
		}(calibrationInput[i*part : (i+1)*part])
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var calibrationInput [32 << 20]byte

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])[:16]
}

func saveResult(out, name string, seed int64, traced bool, info map[string]any, res result) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	blob, err := json.MarshalIndent(map[string]any{"context": info, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, t)), blob, 0o644)
}

// memSampler tracks the peak of the memory the Go runtime holds from
// the OS (mapped minus released: the process's resident Go memory)
// while the operations run, so set-up and reference runs do not count.
type memSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64() - samples[1].Value.Uint64(); v > m.peak {
			m.peak = v
		}
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			read()
			select {
			case <-m.stopc:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

const memSampleEvery = 5 * time.Millisecond

// stop ends sampling and returns the peak in MiB.
func (m *memSampler) stop() float64 {
	close(m.stopc)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

// mean is the arithmetic mean of v; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
