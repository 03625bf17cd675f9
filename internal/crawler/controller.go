package crawler

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"crumbcruncher/internal/stats"
)

// Decision is the controller's answer to an element submission: which of
// the crawler's own elements to click.
type Decision struct {
	Found bool   `json:"found"`
	Index int    `json:"index"`
	Kind  string `json:"kind,omitempty"`
}

// LandingResult is the controller's answer to a landing-FQDN submission.
type LandingResult struct {
	Synchronized bool `json:"synchronized"`
}

// API is the controller surface crawlers talk to. The production
// implementation is HTTP over loopback (the paper's "central controller (a
// local HTTP server)"); tests may use the Controller directly.
type API interface {
	SubmitElements(walk, step int, crawler string, elements []Element) (Decision, error)
	SubmitLanding(walk, step int, crawler, fqdn string) (LandingResult, error)
}

// ErrBarrierTimeout is returned when the other crawlers never arrive at a
// rendezvous (a crawler died mid-step).
var ErrBarrierTimeout = errors.New("crawler: controller barrier timeout")

// Controller synchronizes the three parallel crawlers and picks the
// element to click, preferring iframes (expected to contain ads) and
// cross-domain anchors, per §3.1.
type Controller struct {
	split      *stats.Splitter
	heOn       Heuristics
	iframeBias float64
	timeout    time.Duration

	mu       sync.Mutex
	barriers map[string]*barrier

	// afterBarrier, when set, is invoked by the completing arrival of
	// every rendezvous — while the other crawlers of the walk are still
	// blocked in their Submit calls — giving the crawl a point where it
	// can advance the virtual clock with no crawler concurrently
	// stamping requests (see clockLedger).
	afterBarrier func(walk int)
}

// NewController returns a controller. iframeBias is the probability of
// choosing a matched iframe when cross-domain anchors are also available.
func NewController(seed int64, heur Heuristics, iframeBias float64) *Controller {
	return &Controller{
		split:      stats.NewSplitter(stats.DeriveSeed(seed, "controller")),
		heOn:       heur,
		iframeBias: iframeBias,
		timeout:    30 * time.Second,
		barriers:   make(map[string]*barrier),
	}
}

type barrier struct {
	need   int
	subs   map[string]interface{}
	done   chan struct{}
	result interface{}
}

// rendezvous registers a submission under key and blocks until need
// submissions arrived; the last arrival runs compute over all submissions
// exactly once.
func (c *Controller) rendezvous(key, crawler string, sub interface{}, need int,
	compute func(map[string]interface{}) interface{}) (interface{}, error) {

	c.mu.Lock()
	b, ok := c.barriers[key]
	if !ok {
		b = &barrier{need: need, subs: make(map[string]interface{}), done: make(chan struct{})}
		c.barriers[key] = b
	}
	b.subs[crawler] = sub
	if len(b.subs) == b.need {
		b.result = compute(b.subs)
		close(b.done)
		delete(c.barriers, key)
	}
	c.mu.Unlock()

	// The guard timer is stopped on return: under go 1.22 timer
	// semantics an unstopped timer stays live until it fires, so one per
	// rendezvous would pin memory for the whole timeout.
	guard := time.NewTimer(c.timeout) //crumb:allow wallclock real deadlock guard; never fires on the success path
	defer guard.Stop()
	select {
	case <-b.done:
		return b.result, nil
	case <-guard.C:
		return nil, ErrBarrierTimeout
	}
}

// SubmitElements implements API.
func (c *Controller) SubmitElements(walk, step int, crawler string, elements []Element) (Decision, error) {
	key := fmt.Sprintf("el/%d/%d", walk, step)
	res, err := c.rendezvous(key, crawler, elements, len(ParallelCrawlers),
		func(subs map[string]interface{}) interface{} {
			lists := make(map[string][]Element, len(subs))
			for name, v := range subs {
				lists[name] = v.([]Element)
			}
			res := c.decide(walk, step, lists)
			if c.afterBarrier != nil {
				c.afterBarrier(walk)
			}
			return res
		})
	if err != nil {
		return Decision{}, err
	}
	decisions := res.(map[string]Decision)
	return decisions[crawler], nil
}

// decide matches the three element lists and picks the click target. The
// choice is seeded per (walk, step), so it does not depend on goroutine
// arrival order.
func (c *Controller) decide(walk, step int, lists map[string][]Element) map[string]Decision {
	matches := MatchElements(lists, c.heOn)
	out := make(map[string]Decision, len(ParallelCrawlers))
	if len(matches) == 0 {
		for _, name := range ParallelCrawlers {
			out[name] = Decision{Found: false, Index: -1}
		}
		return out
	}
	var iframes, crossAnchors []MatchTriple
	for _, m := range matches {
		switch {
		case m.Kind == "iframe":
			iframes = append(iframes, m)
		case m.CrossDomain:
			crossAnchors = append(crossAnchors, m)
		}
	}
	rng := stats.AcquireRNG(c.split.Seed(fmt.Sprintf("pick/%d/%d", walk, step)))
	defer rng.Release()
	var chosen MatchTriple
	switch {
	case len(iframes) > 0 && (len(crossAnchors) == 0 || rng.Bool(c.iframeBias)):
		chosen = iframes[rng.Intn(len(iframes))]
	case len(crossAnchors) > 0:
		chosen = crossAnchors[rng.Intn(len(crossAnchors))]
	default:
		chosen = matches[rng.Intn(len(matches))]
	}
	for _, name := range ParallelCrawlers {
		out[name] = Decision{Found: true, Index: chosen.Indices[name], Kind: chosen.Kind}
	}
	return out
}

// SubmitLanding implements API: all three landing FQDNs must agree for the
// walk to continue (§3.3).
func (c *Controller) SubmitLanding(walk, step int, crawler, fqdn string) (LandingResult, error) {
	key := fmt.Sprintf("land/%d/%d", walk, step)
	res, err := c.rendezvous(key, crawler, fqdn, len(ParallelCrawlers),
		func(subs map[string]interface{}) interface{} {
			// An empty FQDN marks a failed click; it must compare like
			// any other value (a "" sentinel here once let one crawler
			// sail past two crashed peers and deadlock the next step's
			// rendezvous).
			first, started, same := "", false, true
			for _, v := range subs {
				f := v.(string)
				if !started {
					first, started = f, true
					continue
				}
				if f != first {
					same = false
				}
			}
			if c.afterBarrier != nil {
				c.afterBarrier(walk)
			}
			return LandingResult{Synchronized: same}
		})
	if err != nil {
		return LandingResult{}, err
	}
	return res.(LandingResult), nil
}

// --- HTTP transport -------------------------------------------------------

// elementsRequest is the POST /elements body.
type elementsRequest struct {
	Walk     int       `json:"walk"`
	Step     int       `json:"step"`
	Crawler  string    `json:"crawler"`
	Elements []Element `json:"elements"`
}

// landingRequest is the POST /landing body.
type landingRequest struct {
	Walk    int    `json:"walk"`
	Step    int    `json:"step"`
	Crawler string `json:"crawler"`
	FQDN    string `json:"fqdn"`
}

// Handler exposes the controller over HTTP: POST /elements and POST
// /landing with JSON bodies. Requests block until the step's rendezvous
// completes, exactly like the paper's local controller server.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /elements", func(w http.ResponseWriter, r *http.Request) {
		var req elementsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		dec, err := c.SubmitElements(req.Walk, req.Step, req.Crawler, req.Elements)
		if err != nil {
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
			return
		}
		writeJSON(w, dec)
	})
	mux.HandleFunc("POST /landing", func(w http.ResponseWriter, r *http.Request) {
		var req landingRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := c.SubmitLanding(req.Walk, req.Step, req.Crawler, req.FQDN)
		if err != nil {
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
			return
		}
		writeJSON(w, res)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve starts the controller on a loopback listener and returns its base
// URL and a shutdown function.
func (c *Controller) Serve() (baseURL string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("crawler: controller listen: %w", err)
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln) //nolint:errcheck // closed via shutdown
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// HTTPClient talks to a served controller.
type HTTPClient struct {
	Base string
	HC   *http.Client
}

// NewHTTPClient returns a client for a controller base URL.
func NewHTTPClient(base string) *HTTPClient {
	return &HTTPClient{Base: base, HC: &http.Client{Timeout: 60 * time.Second}}
}

func (cl *HTTPClient) post(path string, req, out interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := cl.HC.Post(cl.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("crawler: controller %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// SubmitElements implements API over HTTP.
func (cl *HTTPClient) SubmitElements(walk, step int, crawler string, elements []Element) (Decision, error) {
	var dec Decision
	err := cl.post("/elements", elementsRequest{Walk: walk, Step: step, Crawler: crawler, Elements: elements}, &dec)
	return dec, err
}

// SubmitLanding implements API over HTTP.
func (cl *HTTPClient) SubmitLanding(walk, step int, crawler, fqdn string) (LandingResult, error) {
	var res LandingResult
	err := cl.post("/landing", landingRequest{Walk: walk, Step: step, Crawler: crawler, FQDN: fqdn}, &res)
	return res, err
}
