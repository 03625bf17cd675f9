package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/serve"
)

// serve-mixed sizing: crumbserved's worker count, the closed-loop
// client count, the job seeds per run, and how often a client polls a
// job it is waiting on.
const (
	serveWorkers  = 2
	serveClients  = 2
	serveSeeds    = 3
	serveWalks    = 20 // per SmallConfig crawl job, so a 20 s run completes over 100 jobs
	serveSetups   = 3
	pollInterval  = 5 * time.Millisecond
	waitLimit     = time.Minute
	reanalyzeEach = 4 // every fourth job of a client is a reanalyze
	// spanCapacity is crumbserved's -span-cap. The server keeps every
	// finished job's span ring for its lifetime: about 19 MB of resident
	// memory per job at the default 65536 spans and 3.7 MB of live heap
	// at 4096, over 1.5 GB for the 300 jobs a fast run completes.
	spanCapacity = 1024
)

// server is an in-process serve.Server behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

func startServer(dir string) (*server, error) {
	srv, err := serve.New(serve.Options{Workers: serveWorkers, StoreDir: dir, SpanCapacity: spanCapacity})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background()) //nolint:errcheck // already failing
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the job server, closes the listener and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	return errors.Join(derr, herr)
}

// client is one closed-loop caller with its own connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// submit posts a job. A refused job (429 or 503) returns its status
// code and no error.
func (c *client) submit(spec serve.JobSpec) (string, int, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", resp.StatusCode, nil
	default:
		return "", resp.StatusCode, fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return "", resp.StatusCode, err
	}
	return st.ID, resp.StatusCode, nil
}

func terminal(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateCanceled, serve.StateInterrupted:
		return true
	}
	return false
}

// wait polls the job until the first poll that reads a terminal state,
// giving up after waitLimit so a wedged job cannot hang the run.
func (c *client) wait(id string) (serve.Status, error) {
	deadline := time.Now().Add(waitLimit)
	for {
		if time.Now().After(deadline) {
			return serve.Status{}, fmt.Errorf("job %s not terminal after %v", id, waitLimit)
		}
		body, code, err := c.get("/jobs/" + id)
		if err != nil {
			return serve.Status{}, err
		}
		if code != http.StatusOK {
			return serve.Status{}, fmt.Errorf("GET /jobs/%s: %d", id, code)
		}
		var st serve.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return st, err
		}
		if terminal(st.State) {
			return st, nil
		}
		time.Sleep(pollInterval)
	}
}

func (c *client) metrics(id string) ([]byte, error) {
	body, code, err := c.get("/jobs/" + id + "/metrics")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /jobs/%s/metrics: %d", id, code)
	}
	return body, err
}

// cacheCounts reads the world-cache counters from /debug/vars.
func (c *client) cacheCounts() (hits, misses int64, err error) {
	body, code, err := c.get("/debug/vars")
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /debug/vars: %d", code)
	}
	var v struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, 0, err
	}
	return v.Metrics.Counters["serve.world_cache_hits"], v.Metrics.Counters["serve.world_cache_misses"], nil
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	spec    serve.JobSpec
	want    []byte // reference metrics
	walks   int
	refused bool
	lat     time.Duration
	status  serve.Status
	err     error
	traced  bool
}

// runJob submits spec and waits for it, timing from the POST to the
// first poll that reads a terminal state.
func (c *client) runJob(root *Span, spec serve.JobSpec) jobRecord {
	rec := jobRecord{spec: spec}
	t0 := time.Now()
	sp := root.Child("serve", "POST /jobs")
	id, code, err := c.submit(spec)
	sp.End()
	if err != nil {
		rec.err = err
		return rec
	}
	if id == "" {
		rec.refused = true
		rec.status.Error = fmt.Sprintf("refused: %d", code)
		return rec
	}
	sp = root.Child("serve", "GET /jobs/{id} until terminal")
	rec.status, rec.err = c.wait(id)
	sp.End()
	rec.lat = time.Since(t0)
	return rec
}

// check fetches a finished job's metrics and compares them with the
// reference; it returns whether the job counts as done and correct.
func (c *client) check(rec *jobRecord) bool {
	if rec.err != nil || rec.refused || rec.status.State != serve.StateDone {
		return false
	}
	got, err := c.metrics(rec.status.ID)
	if err != nil {
		rec.err = err
		return false
	}
	return bytes.Equal(got, rec.want)
}

func crawlSpec(seed int64) serve.JobSpec {
	return serve.JobSpec{Small: true, Seed: seed, Walks: serveWalks, Parallelism: parallelism}
}

// tenantConfig is the configuration crawlSpec(seed) resolves to.
func tenantConfig(seed int64) core.Config {
	cfg := core.SmallConfig()
	cfg.World.Seed = seed
	cfg.Walks = serveWalks
	cfg.Parallelism = parallelism
	return cfg
}

// serveMixed drives crumbserved's HTTP API with closed-loop clients: a
// mix of SmallConfig crawls over a few tenant seeds and, every fourth
// job, a reanalyze of a tenant run stored during warm-up.
type serveMixed struct {
	seeds []int64
	work  string
	srv   *server
	refs  map[int64][]byte // solo NewRunner metrics per job seed
	warm  []jobRecord      // warm-up crawls, one per seed; reanalyze targets
	bad   int

	mu    sync.Mutex
	jobs  []jobRecord // every measured job
	sched [serveClients]*schedule
	hits  int64
	miss  int64
}

// schedule is one client's job sequence, drawn from the workload seed:
// crawls visit the tenants in a fresh shuffled order each round, and
// every fourth job reanalyzes a randomly chosen stored tenant run.
type schedule struct {
	rng  *rand.Rand
	n    int
	perm []int
	i    int
}

func (s *schedule) next() (reanalyze bool, tenant int) {
	s.i++
	if s.i%reanalyzeEach == 0 {
		return true, s.rng.Intn(s.n)
	}
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.n)
	}
	tenant, s.perm = s.perm[0], s.perm[1:]
	return false, tenant
}

// newServeMixed fixes the tenants to SmallConfig seeds 1..serveSeeds and
// lets the workload seed drive the arrival schedule. Small worlds differ
// widely in crawl cost, so seed-derived tenants would make a run's
// jobs/s depend mostly on which three worlds it drew.
func newServeMixed(seed int64, work string) *serveMixed {
	m := &serveMixed{work: work, refs: map[int64][]byte{}}
	for i := 0; i < serveSeeds; i++ {
		m.seeds = append(m.seeds, int64(i)+1)
	}
	for c := range m.sched {
		m.sched[c] = &schedule{rng: rand.New(rand.NewSource(seed*serveClients + int64(c))), n: serveSeeds}
	}
	return m
}

// soloMetrics is the reference for a crawl job: the same spec run solo
// in-process through NewRunner.
func soloMetrics(ctx context.Context, seed int64) ([]byte, error) {
	run, err := crumbcruncher.NewRunner(tenantConfig(seed)).Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("solo reference seed %d: %w", seed, err)
	}
	var buf bytes.Buffer
	err = crumbcruncher.WriteMetricsJSON(&buf, run)
	return buf.Bytes(), err
}

func (m *serveMixed) setup(ctx context.Context) ([]time.Duration, error) {
	for _, s := range m.seeds {
		ref, err := soloMetrics(ctx, s)
		if err != nil {
			return nil, err
		}
		m.refs[s] = ref
	}
	var reps []time.Duration
	for i := 0; i < serveSetups; i++ {
		if err := m.close(); err != nil {
			return nil, err
		}
		dir := filepath.Join(m.work, fmt.Sprintf("store-%d", i))
		t0 := time.Now()
		srv, warm, err := m.warmUp(dir)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		reps = append(reps, d)
		m.srv, m.warm = srv, warm
	}
	// Check the warm-up jobs (outside set-up time) against their solo
	// runs. Their stored runs are what the reanalyze jobs read, so each
	// one's metrics become the reference for reanalyzing it.
	cl := newClient(m.srv.base)
	defer cl.close()
	for i := range m.warm {
		got, err := cl.metrics(m.warm[i].status.ID)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, m.warm[i].want) {
			return nil, fmt.Errorf("warm-up crawl of seed %d differs from its solo run", m.warm[i].spec.Seed)
		}
		m.warm[i].want = got
	}
	return reps, nil
}

// warmUp starts a server and runs one crawl per job seed through it,
// filling its world cache and its run store.
func (m *serveMixed) warmUp(dir string) (*server, []jobRecord, error) {
	srv, err := startServer(dir)
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(srv.base)
	defer cl.close()
	var ids []string
	for _, s := range m.seeds {
		id, _, err := cl.submit(crawlSpec(s))
		if err == nil && id == "" {
			err = errors.New("warm-up job refused")
		}
		if err != nil {
			srv.stop() //nolint:errcheck // already failing
			return nil, nil, err
		}
		ids = append(ids, id)
	}
	warm := make([]jobRecord, len(ids))
	for i, id := range ids {
		st, err := cl.wait(id)
		if err == nil && (st.State != serve.StateDone || st.RunID == "") {
			err = fmt.Errorf("warm-up job %s ended %s %s", id, st.State, st.Error)
		}
		if err != nil {
			srv.stop() //nolint:errcheck // already failing
			return nil, nil, err
		}
		warm[i] = jobRecord{spec: crawlSpec(m.seeds[i]), want: m.refs[m.seeds[i]], walks: serveWalks, status: st}
	}
	return srv, warm, nil
}

// nextSpec is client c's next job and its reference metrics.
func (m *serveMixed) nextSpec(c int) (serve.JobSpec, []byte) {
	m.mu.Lock()
	re, k := m.sched[c].next()
	m.mu.Unlock()
	if re {
		w := m.warm[k]
		return serve.JobSpec{Kind: serve.KindReanalyze, RunID: w.status.RunID, Parallelism: parallelism}, w.want
	}
	return crawlSpec(m.seeds[k]), m.refs[m.seeds[k]]
}

func (m *serveMixed) measure(_ context.Context, d time.Duration, tr *Tracer) window {
	probe := newClient(m.srv.base)
	defer probe.close()
	h0, m0, err0 := probe.cacheCounts()
	start := time.Now()
	recs := make([][]jobRecord, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(m.srv.base)
			defer cl.close()
			for time.Since(start) < d {
				spec, want := m.nextSpec(c)
				root := tracedRoot(tr, len(recs[c]))
				rec := cl.runJob(root, spec)
				root.End()
				rec.want, rec.walks, rec.traced = want, serveWalks, root != nil
				recs[c] = append(recs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	h1, m1, err1 := probe.cacheCounts()
	if err := errors.Join(err0, err1); err != nil {
		logBad(&m.bad, "serve-mixed: /debug/vars: %v", err)
	}

	// Output checks, after the clock has stopped.
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hits += h1 - h0
	m.miss += m1 - m0
	for _, rs := range recs {
		for _, rec := range rs {
			if rec.refused {
				w.refused++
				m.jobs = append(m.jobs, rec)
				continue
			}
			ok := probe.check(&rec)
			if !ok {
				logBad(&m.bad, "serve-mixed: job %s (%s) state %s: output check failed %v %s",
					rec.status.ID, rec.status.Kind, rec.status.State, rec.err, rec.status.Error)
			}
			w.samples = append(w.samples, sample{lat: rec.lat, walks: rec.walks, ok: ok, traced: rec.traced})
			m.jobs = append(m.jobs, rec)
		}
	}
	return w
}

// serveLayer derives the serve.* metrics from job records and the
// world-cache counter deltas.
func serveLayer(jobs []jobRecord, hits, misses int64, lv layerValues) {
	var wait, crawl, reanalyze []float64
	refused := 0
	for _, j := range jobs {
		if j.refused {
			refused++
			continue
		}
		// Timestamps are ms since server start, so 0 is a valid reading;
		// only a job that ran to done has all three.
		st := j.status
		if st.State != serve.StateDone {
			continue
		}
		wait = append(wait, float64(st.StartedMs-st.EnqueuedMs))
		exec := float64(st.FinishedMs - st.StartedMs)
		if st.Kind == serve.KindReanalyze {
			reanalyze = append(reanalyze, exec)
		} else {
			crawl = append(crawl, exec)
		}
	}
	lv["serve.queue_wait_ms"] = mean(wait)
	lv["serve.crawl_exec_ms"] = median(crawl)
	lv["serve.reanalyze_exec_ms"] = median(reanalyze)
	if hits+misses > 0 {
		lv["serve.world_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	lv["serve.refused"] = float64(refused)
}

func (m *serveMixed) probe(ctx context.Context, tr *Tracer, lv layerValues) error {
	m.mu.Lock()
	serveLayer(m.jobs, m.hits, m.miss, lv)
	m.mu.Unlock()
	run, err := liveProbe(ctx, tr, tenantConfig(m.seeds[0]), lv)
	if err != nil {
		return err
	}
	return saveAndProbeStore(ctx, tr, run, m.work, m.refs[m.seeds[0]], lv)
}

func (m *serveMixed) describe() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	digests := map[string]string{}
	var all []byte
	for _, s := range m.seeds {
		digests[fmt.Sprint(s)] = digest(m.refs[s])
		all = append(all, m.refs[s]...)
	}
	return map[string]any{
		"job_seeds":          m.seeds,
		"walks_per_job":      serveWalks,
		"clients":            serveClients,
		"workers":            serveWorkers,
		"jobs_measured":      len(m.jobs),
		"metrics_digest":     digest(all),
		"metrics_digest_per": digests,
	}
}

func (m *serveMixed) close() error {
	if m.srv == nil {
		return nil
	}
	err := m.srv.stop()
	m.srv = nil
	return err
}

// serveProbe measures the serve layer on a batch workload's own
// configuration: one crawl job of cfg and one reanalyze of the run it
// stored, through a fresh in-process server.
func serveProbe(tr *Tracer, cfg core.Config, dir string, want []byte, lv layerValues) error {
	srv, err := startServer(dir)
	if err != nil {
		return err
	}
	cl := newClient(srv.base)
	defer cl.close()
	root := tr.Root("bench", "probe")
	crawl := cl.runJob(root, serve.JobSpec{Config: &cfg})
	crawl.want = want
	jobs := []jobRecord{crawl}
	if crawl.status.RunID != "" {
		re := cl.runJob(root, serve.JobSpec{Kind: serve.KindReanalyze, RunID: crawl.status.RunID, Parallelism: cfg.Parallelism})
		re.want = want
		jobs = append(jobs, re)
	}
	root.End()
	hits, misses, cerr := cl.cacheCounts()
	var bad []string
	for i := range jobs {
		if !cl.check(&jobs[i]) {
			bad = append(bad, fmt.Sprintf("%s job %s: %s %v", jobs[i].status.Kind, jobs[i].status.ID, jobs[i].status.State, jobs[i].err))
		}
	}
	if len(jobs) < 2 {
		bad = append(bad, "crawl job stored no run")
	}
	if err := errors.Join(srv.stop(), cerr); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("serve probe: %v", bad)
	}
	serveLayer(jobs, hits, misses, lv)
	return nil
}
