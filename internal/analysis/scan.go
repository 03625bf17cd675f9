package analysis

import (
	"fmt"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/tokens"
)

// walkScan is everything the figures read from raw walk records,
// folded in one pass over the source: the §3.3 step and outcome
// tallies (FailureRates, FailuresByStep), the distinct-site sets behind
// the connection-failure and resilience splits, Figure 6's third-party
// tally and each confirmed case's §3.6 provenance. It is built once per
// Analysis, on first use, and is read-only afterwards, so any number of
// goroutines may read the figures concurrently.
type walkScan struct {
	// err is the first error the source returned; the tallies then
	// cover only the walks read before it.
	err error

	steps    int
	outcomes map[crawler.StepOutcome]int
	byStep   map[int]map[crawler.StepOutcome]int
	maxStep  int

	failure    FailureRates
	resilience ResilienceStats
	thirdParty *stats.Counter
	sources    map[TokenSource]int

	// Working sets, dropped once the scan finishes: registered domains
	// the first crawler attempted and failed to connect to
	// (FailureRates), domains with a failed or a successful recorded
	// request (Resilience), and every confirmed UID value (Figure 6).
	attempted, connFailed map[string]bool
	reqFailed, reqOK      map[string]bool
	uidValues             map[string]bool
}

// scan returns the figure scan, running it on first use.
func (a *Analysis) scan() *walkScan {
	a.scanOnce.Do(func() { a.figures = a.runScan() })
	return a.figures
}

// Err reports the first error the figure scan hit replaying the walk
// source, running the scan if no figure has yet. After an error the
// walk-derived figures — StepCount, FailureRates, Resilience,
// ThirdPartyReceivers, FailuresByStep and StorageSourceBreakdown —
// cover only the walks read before it.
func (a *Analysis) Err() error { return a.scan().err }

func (a *Analysis) runScan() *walkScan {
	s := &walkScan{
		outcomes:   map[crawler.StepOutcome]int{},
		byStep:     map[int]map[crawler.StepOutcome]int{},
		thirdParty: stats.NewCounter(),
		sources:    map[TokenSource]int{},
		attempted:  map[string]bool{},
		connFailed: map[string]bool{},
		reqFailed:  map[string]bool{},
		reqOK:      map[string]bool{},
		uidValues:  map[string]bool{},
	}
	// Each case's provenance is read from its first candidate's walk,
	// resolved when the scan reaches that walk.
	pending := map[int][]*tokens.Candidate{}
	for _, c := range a.cases {
		for _, v := range c.Values {
			s.uidValues[v] = true
		}
		cand := c.Candidates[0]
		pending[cand.Walk] = append(pending[cand.Walk], cand)
	}
	err := a.src.ForEachWalk(func(w *crawler.Walk) error {
		s.addWalk(w)
		if cands, ok := pending[w.Index]; ok {
			delete(pending, w.Index)
			for _, cand := range cands {
				s.sources[sourceOfCase(w, cand)]++
			}
		}
		return nil
	})
	if err != nil {
		s.err = fmt.Errorf("analysis: figure scan: %w", err)
	}
	// A case whose walk was never read has no storage snapshot to match.
	for _, cands := range pending {
		s.sources[SourceQueryOnly] += len(cands)
	}
	s.finish()
	return s
}

// addWalk folds one walk into every tally.
func (s *walkScan) addWalk(w *crawler.Walk) {
	if rec := w.SeedLoad[crawler.Safari1]; rec != nil {
		s.visit(regOf(rec.StartURL), isConnectFail(rec.Fail))
	}
	for _, rec := range w.SeedLoad {
		s.addRequests(rec, false, "")
	}
	for _, st := range w.Steps {
		s.steps++
		s.outcomes[st.Outcome]++
		if st.Index > s.maxStep {
			s.maxStep = st.Index
		}
		m := s.byStep[st.Index]
		if m == nil {
			m = map[crawler.StepOutcome]int{}
			s.byStep[st.Index] = m
		}
		m[st.Outcome]++
		for name, rec := range st.Records {
			if rec == nil {
				continue
			}
			landed := ""
			if rec.LandedURL != "" {
				landed = regOf(rec.LandedURL)
			}
			if name == crawler.Safari1 {
				if rec.LandedURL != "" {
					s.visit(landed, false)
				} else if isConnectFail(rec.Fail) && len(rec.NavChain) > 0 {
					s.visit(regOf(rec.NavChain[len(rec.NavChain)-1].URL), true)
				}
			}
			s.addRequests(rec, true, landed)
		}
	}
}

// visit records a site the first crawler attempted (FailureRates). A
// site either always fails or never does (per-domain faults), so the
// two sets cannot overlap.
func (s *walkScan) visit(domain string, fail bool) {
	if domain == "" {
		return
	}
	s.attempted[domain] = true
	if fail {
		s.connFailed[domain] = true
	}
}

// addRequests folds one crawler record's request log into the
// resilience sets and, for a step record (step) that landed on a page
// whose registered domain is landed, into Figure 6: third-party beacons
// sent from the destination page that carry a confirmed UID — whether
// deliberately or leaked inside a full-URL parameter (§5.2.2).
func (s *walkScan) addRequests(rec *crawler.CrawlerStep, step bool, landed string) {
	fromDest := step && rec.LandedURL != "" && len(s.uidValues) > 0
	for _, req := range rec.Requests {
		d := regOf(req.URL)
		if d == "" {
			continue
		}
		if req.Attempt > 0 {
			s.resilience.RetriedRequests++
		}
		if requestFailed(req.Err, req.Status) {
			s.reqFailed[d] = true
		} else if req.Status > 0 {
			s.reqOK[d] = true
		}
		if fromDest && req.Kind == browser.KindBeacon && req.Referer == rec.LandedURL &&
			d != landed && requestCarriesUID(req.URL, s.uidValues) {
			s.thirdParty.Inc(d)
		}
	}
}

// finish turns the working sets into the §3.3 rates and the resilience
// split, then drops them.
func (s *walkScan) finish() {
	if s.steps > 0 {
		f := FailureRates{Steps: s.steps, SitesAttempted: len(s.attempted)}
		f.NoCommonElement = float64(s.outcomes[crawler.OutcomeNoCommonElement]) / float64(s.steps)
		f.Divergent = float64(s.outcomes[crawler.OutcomeDivergent]) / float64(s.steps)
		if len(s.attempted) > 0 {
			f.ConnectError = float64(len(s.connFailed)) / float64(len(s.attempted))
		}
		s.failure = f
	}

	rs := &s.resilience
	attempted := len(s.reqOK)
	for d := range s.reqFailed {
		if s.reqOK[d] {
			rs.SitesRecovered++
		} else {
			rs.SitesUnreachable++
			attempted++
		}
	}
	if attempted > 0 {
		rs.RecoveredRate = float64(rs.SitesRecovered) / float64(attempted)
		rs.UnreachableRate = float64(rs.SitesUnreachable) / float64(attempted)
	}
	s.attempted, s.connFailed, s.reqFailed, s.reqOK, s.uidValues = nil, nil, nil, nil, nil
}
