package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// The probes run only in a traced run, after the measured operations,
// and measure each layer from outside on the workload's own inputs:
// the same configuration, the same kind of walks. Each probe is its own
// trace (root span "probe") so the per-layer self times of the probes
// are reported apart from those of the measured operations.

// layerValues collects the per-layer metrics of a traced run.
type layerValues map[string]float64

// liveProbe builds cfg's world, crawls a fresh fork of it with request
// capture and progress timing, then replays the captured requests and
// the recorded walks through the web, netsim, dom, tokens, uid and
// analysis layers. It returns the live run for the store probe.
func liveProbe(ctx context.Context, tr *Tracer, cfg core.Config, lv layerValues) (*core.Run, error) {
	var tpl *web.World
	var builds []float64
	for i := 0; i < 3; i++ {
		root := tr.Root("bench", "probe")
		t0 := time.Now()
		root.Call("web", "BuildWorld", func() { tpl = web.BuildWorld(cfg.World) })
		builds = append(builds, time.Since(t0).Seconds())
		root.End()
	}
	lv["web.build_world_s"] = median(builds)

	// Live crawl with capture.
	root := tr.Root("bench", "probe")
	fork := tpl.Fork()
	type captured struct {
		method, url string
		header      http.Header
	}
	var capMu sync.Mutex
	var reqs []captured
	sub := fork.Network().Observe(func(r *http.Request) {
		c := captured{method: r.Method, url: r.URL.String(), header: r.Header.Clone()}
		capMu.Lock()
		reqs = append(reqs, c)
		capMu.Unlock()
	})
	prog := &progressClock{}
	ccfg := cfg
	ccfg.OnProgress = prog.observe
	var run *core.Run
	var err error
	prog.start = time.Now()
	ex := root.Child("core", "ExecuteInWorld")
	run, err = core.ExecuteInWorld(ctx, ccfg, fork)
	if err == nil {
		ex.Interval("crawler", "crawl", prog.start, prog.lastDone)
	}
	ex.End()
	sub.Cancel()
	if err != nil {
		root.End()
		return nil, fmt.Errorf("probe crawl: %w", err)
	}
	var mbuf, rbuf bytes.Buffer
	root.Call("report", "WriteMetricsJSON", func() { err = crumbcruncher.WriteMetricsJSON(&mbuf, run) })
	root.Call("report", "WriteReport", func() { crumbcruncher.WriteReport(&rbuf, run) })
	tail := time.Since(prog.lastDone)
	root.End()
	if err != nil {
		return nil, err
	}
	lv["crawler.crawl_s"] = prog.lastDone.Sub(prog.start).Seconds()
	lv["core.tail_s"] = tail.Seconds()
	lv["core.queue_depth_max"] = float64(prog.maxQueue)
	lv["netsim.requests"] = float64(fork.Network().RequestCount())
	lv["netsim.failures"] = float64(fork.Network().FailureCount())
	steps := run.Dataset.StepCount()
	lv["crawler.steps"] = float64(steps)
	if steps > 0 {
		lv["crawler.step_fail_ratio"] = float64(steps-run.Dataset.OutcomeCounts()[crawler.OutcomeOK]) / float64(steps)
	}

	// Serial replay through a fresh fork: every request the crawl sent,
	// in the order the network saw it.
	root = tr.Root("bench", "probe")
	replay := tpl.Fork().Network()
	var pageT, otherT, parseT time.Duration
	var pages, others int
	for _, c := range reqs {
		req, rerr := http.NewRequestWithContext(ctx, c.method, c.url, nil)
		if rerr != nil {
			root.End()
			return nil, fmt.Errorf("replay %s: %w", c.url, rerr)
		}
		req.Header = c.header
		sp := root.Child("web", "Network.RoundTrip")
		t0 := time.Now()
		resp, rerr := replay.RoundTrip(req)
		if rerr != nil {
			sp.End()
			continue // an injected fault: counted by netsim.failures
		}
		body, rerr := netsim.ReadBody(resp)
		d := time.Since(t0)
		sp.End()
		if rerr != nil {
			root.End()
			return nil, fmt.Errorf("replay %s: read body: %w", c.url, rerr)
		}
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
			otherT += d
			others++
			continue
		}
		pageT += d
		pages++
		sp = root.Child("dom", "Parse")
		t0 = time.Now()
		dom.Parse(body)
		parseT += time.Since(t0)
		sp.End()
	}
	root.End()
	lv["web.page_us"] = meanMicros(pageT, pages)
	lv["web.redirect_us"] = meanMicros(otherT, others)
	lv["dom.parse_us"] = meanMicros(parseT, pages)
	lv["dom.pages"] = float64(pages)

	if err := stageProbe(ctx, tr, cfg, run, lv); err != nil {
		return nil, err
	}
	return run, nil
}

// progressClock records, from OnProgress snapshots, when the last walk
// finished crawling and the deepest the streaming queue got.
type progressClock struct {
	mu       sync.Mutex
	start    time.Time
	lastDone time.Time
	done     int
	maxQueue int
}

func (p *progressClock) observe(s core.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.WalksDone > p.done {
		p.done = s.WalksDone
		p.lastDone = time.Now()
	}
	if s.QueueDepth > p.maxQueue {
		p.maxQueue = s.QueueDepth
	}
}

// stageProbe replays the run's walks through the per-walk analysis
// stages the streaming engine drives, and checks that they reproduce
// the run's own candidate and case counts.
func stageProbe(ctx context.Context, tr *Tracer, cfg core.Config, run *core.Run, lv layerValues) error {
	walks := run.Dataset.Walks
	par := max(cfg.Parallelism, 1)
	root := tr.Root("bench", "probe")
	defer root.End()

	acc := tokens.NewAccumulator(cfg.World.Seed, len(walks), crawler.AllCrawlers, nil)
	perWalk := make([][]*tokens.Candidate, len(walks))
	var tokT time.Duration
	for _, w := range walks {
		sp := root.Child("tokens", "Accumulator.AddWalk")
		t0 := time.Now()
		wt := acc.AddWalk(w)
		tokT += time.Since(t0)
		sp.End()
		perWalk[w.Index] = wt.Candidates
	}
	var paths []*tokens.Path
	var cands []*tokens.Candidate
	sp := root.Child("tokens", "Accumulator.Drain")
	t0 := time.Now()
	paths, cands = acc.Drain()
	tokT += time.Since(t0)
	sp.End()
	lv["tokens.addwalk_us"] = meanMicros(tokT, len(walks))
	lv["tokens.candidates"] = float64(len(cands))

	opt := cfg.Identify
	opt.Parallelism = par
	sp = root.Child("uid", "identify")
	t0 = time.Now()
	life := uid.NewLifetimeAccumulator(len(walks))
	ident := uid.NewStreamIdentifier(len(walks), opt)
	for _, w := range walks {
		life.AddWalk(w)
		ident.AddWalk(w.Index, perWalk[w.Index])
	}
	cases, _, err := ident.Drain(ctx, life.Drain())
	lv["uid.identify_s"] = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return fmt.Errorf("probe identify: %w", err)
	}
	lv["uid.cases"] = float64(len(cases))

	sp = root.Child("analysis", "NewFromSource")
	t0 = time.Now()
	_, err = analysis.NewFromSource(ctx, run.Dataset, paths, cases, par, nil)
	lv["analysis.aggregate_s"] = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return fmt.Errorf("probe aggregate: %w", err)
	}
	if len(cands) != len(run.Candidates) || len(cases) != len(run.Cases) {
		return fmt.Errorf("probe stages disagree with the run: %d/%d candidates, %d/%d cases",
			len(cands), len(run.Candidates), len(cases), len(run.Cases))
	}
	return nil
}

// saveStore writes run to a fresh segment store at path and returns how
// long SaveRunStore took.
func saveStore(path string, run *core.Run) (time.Duration, error) {
	if err := os.RemoveAll(path); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := crumbcruncher.SaveRunStore(path, run); err != nil {
		return 0, fmt.Errorf("save run store: %w", err)
	}
	return time.Since(t0), nil
}

// saveAndProbeStore writes run to a segment store under dir
// probeWrites times, reporting the median write, and probes the store.
// store-reanalyze skips it: its set-up already wrote its store.
func saveAndProbeStore(ctx context.Context, tr *Tracer, run *core.Run, dir string, want []byte, lv layerValues) error {
	path := filepath.Join(dir, "probe.crumbs")
	var writes []float64
	for i := 0; i < probeWrites; i++ {
		d, err := saveStore(path, run)
		if err != nil {
			return err
		}
		writes = append(writes, d.Seconds())
	}
	lv["runstore.write_s"] = median(writes)
	return storeProbe(ctx, tr, path, want, lv)
}

// storeProbe measures the runstore layer under the crumbreport path on
// the segment store at path: one counted AnalyzeStore → metrics JSON →
// report, checked against want, then one cursor pass over a line-file
// copy of the same walks.
func storeProbe(ctx context.Context, tr *Tracer, path string, want []byte, lv layerValues) error {
	size, err := dirSize(path)
	if err != nil {
		return err
	}
	lv["runstore.bytes"] = float64(size)

	root := tr.Root("bench", "probe")
	res, err := reanalyzeOp(ctx, root, path)
	root.End()
	if err != nil {
		return err
	}
	if !bytes.Equal(res.metrics, want) {
		return errors.New("store probe: metrics differ from the run that wrote the store")
	}
	c := res.counts
	lv["runstore.open_s"] = res.open.Seconds()
	lv["runstore.passes"] = float64(c.passes)
	lv["runstore.gets"] = float64(c.gets)
	lv["runstore.walks_decoded"] = float64(c.walks)
	lv["runstore.segment.decode_us"] = meanMicros(c.decode, c.walks)
	lv["core.analyze_store_s"] = (res.analyze - c.phase[phaseAnalyze]).Seconds()
	lv["report.metrics_s"] = (res.metricsT - c.phase[phaseMetrics]).Seconds()
	lv["report.render_s"] = (res.render - c.phase[phaseRender]).Seconds()

	// One extra pass over a line-file copy.
	linePath := strings.TrimSuffix(path, runstore.SegmentSuffix) + ".line"
	if err := copyToLine(path, linePath); err != nil {
		return err
	}
	defer os.Remove(linePath)
	lst, err := crumbcruncher.OpenRunStore(linePath)
	if err != nil {
		return err
	}
	defer lst.Close()
	root = tr.Root("bench", "probe")
	defer root.End()
	cur := lst.Iter()
	defer cur.Close()
	var dec time.Duration
	n := 0
	for {
		sp := root.Child("runstore", "line.Cursor.Next")
		t0 := time.Now()
		_, err := cur.Next()
		d := time.Since(t0)
		sp.End()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("line pass: %w", err)
		}
		dec += d
		n++
	}
	lv["runstore.line.decode_us"] = meanMicros(dec, n)
	return nil
}

func copyToLine(src, dst string) error {
	st, err := crumbcruncher.OpenRunStore(src)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	line, err := runstore.Create(dst, runstore.BackendLine, st.Manifest())
	if err != nil {
		return err
	}
	if err := runstore.Copy(line, st); err != nil {
		line.Close()
		return fmt.Errorf("line copy: %w", err)
	}
	return line.Close()
}

func dirSize(path string) (int64, error) {
	var n int64
	err := filepath.WalkDir(path, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

func meanMicros(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}
