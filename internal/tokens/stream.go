package tokens

import (
	"encoding/json"
	"fmt"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/intern"
	"crumbcruncher/internal/telemetry"
)

// WalkTokens is one walk's contribution to the token pipeline: the
// walk's reconstructed navigation paths and the candidates found on
// them. It is the unit the analysis engine computes as each walk
// arrives, persists to the analysis-state sidecar, and merges at drain
// time. Candidates reference Paths by pointer; the JSON form encodes
// that reference as an index so decoding restores pointer identity.
type WalkTokens struct {
	Paths      []*Path
	Candidates []*Candidate
}

// walkTokensJSON is the persisted layout of WalkTokens.
type walkTokensJSON struct {
	Paths      []*Path           `json:"paths"`
	Candidates []candidateRecord `json:"candidates"`
}

// candidateRecord is a Candidate with its Path pointer flattened to an
// index into the walk's path list.
type candidateRecord struct {
	Name      string `json:"name"`
	Value     string `json:"value"`
	Walk      int    `json:"walk"`
	Step      int    `json:"step"`
	Crawler   string `json:"crawler"`
	Profile   string `json:"profile"`
	PathIdx   int    `json:"path_idx"`
	FirstIdx  int    `json:"first_idx"`
	LastIdx   int    `json:"last_idx"`
	Crossings int    `json:"crossings"`
}

// MarshalJSON encodes the walk's paths and candidates with candidate →
// path references as indices.
func (wt WalkTokens) MarshalJSON() ([]byte, error) {
	pos := make(map[*Path]int, len(wt.Paths))
	for i, p := range wt.Paths {
		pos[p] = i
	}
	recs := make([]candidateRecord, len(wt.Candidates))
	for i, c := range wt.Candidates {
		idx, ok := pos[c.Path]
		if !ok {
			return nil, fmt.Errorf("tokens: candidate %s references a path outside its walk", c.Name)
		}
		recs[i] = candidateRecord{
			Name: c.Name, Value: c.Value,
			Walk: c.Walk, Step: c.Step, Crawler: c.Crawler, Profile: c.Profile,
			PathIdx: idx, FirstIdx: c.FirstIdx, LastIdx: c.LastIdx, Crossings: c.Crossings,
		}
	}
	return json.Marshal(walkTokensJSON{Paths: wt.Paths, Candidates: recs})
}

// UnmarshalJSON decodes the persisted layout, restoring candidate →
// path pointer identity.
func (wt *WalkTokens) UnmarshalJSON(data []byte) error {
	var enc walkTokensJSON
	if err := json.Unmarshal(data, &enc); err != nil {
		return err
	}
	wt.Paths = enc.Paths
	wt.Candidates = make([]*Candidate, len(enc.Candidates))
	for i, r := range enc.Candidates {
		if r.PathIdx < 0 || r.PathIdx >= len(enc.Paths) {
			return fmt.Errorf("tokens: candidate %s: path index %d out of range", r.Name, r.PathIdx)
		}
		wt.Candidates[i] = &Candidate{
			Name: r.Name, Value: r.Value,
			Walk: r.Walk, Step: r.Step, Crawler: r.Crawler, Profile: r.Profile,
			Path: enc.Paths[r.PathIdx], FirstIdx: r.FirstIdx, LastIdx: r.LastIdx,
			Crossings: r.Crossings,
		}
	}
	return nil
}

// Accumulator collects per-walk token extraction incrementally for the
// analysis engine. Each walk is processed independently (AddWalk on
// distinct indices may run concurrently from several workers) and Drain
// merges the per-walk results in walk-index order, so the merged output
// is bit-identical to a sequential pass over the walks.
type Accumulator struct {
	names       []string
	tel         *telemetry.Telemetry
	in          *intern.Interner
	pathHist    *telemetry.Histogram
	candHist    *telemetry.Histogram
	perPathHist *telemetry.Histogram
	perWalk     []WalkTokens
}

// NewAccumulator sizes an accumulator for the given walk count.
// crawlers defaults to all four. seed salts the accumulator's private
// string interner (shared by this accumulator's walks, never across
// runs); it does not influence results.
func NewAccumulator(seed int64, walks int, crawlers []string, tel *telemetry.Telemetry) *Accumulator {
	names := crawlers
	if len(names) == 0 {
		names = crawler.AllCrawlers
	}
	reg := tel.Registry()
	return &Accumulator{
		names:       names,
		tel:         tel,
		in:          intern.New(seed),
		pathHist:    reg.Histogram("tokens.path_shard_us"),
		candHist:    reg.Histogram("tokens.candidate_shard_us"),
		perPathHist: reg.Histogram("tokens.candidates_per_path"),
		perWalk:     make([]WalkTokens, walks),
	}
}

// AddWalk reconstructs walk w's navigation paths, finds their
// candidates, stores the result at w.Index and returns it. Paths come
// in (step, crawler) order and each path's candidates in FindCandidates
// order. Per-walk path and candidate wall times land in the
// tokens.path_shard_us and tokens.candidate_shard_us histograms and
// per-path candidate counts in tokens.candidates_per_path.
func (a *Accumulator) AddWalk(w *crawler.Walk) WalkTokens {
	var sw telemetry.Stopwatch
	if a.tel != nil {
		sw = telemetry.StartStopwatch()
	}
	wt := WalkTokens{Paths: pathsFromWalk(w, a.names, a.in)}
	if a.tel != nil {
		a.pathHist.Observe(sw.ElapsedMicros())
		sw = telemetry.StartStopwatch()
	}
	for _, p := range wt.Paths {
		cs := FindCandidates(p)
		a.perPathHist.Observe(int64(len(cs)))
		wt.Candidates = append(wt.Candidates, cs...)
	}
	if a.tel != nil {
		a.candHist.Observe(sw.ElapsedMicros())
	}
	a.perWalk[w.Index] = wt
	return wt
}

// Restore adopts a previously-persisted walk's extraction (the
// checkpoint-resume path) instead of recomputing it.
func (a *Accumulator) Restore(index int, wt WalkTokens) {
	a.perWalk[index] = wt
}

// Drain concatenates the per-walk paths and candidates in walk-index
// order and adds their totals to the tokens.paths and tokens.candidates
// counters.
func (a *Accumulator) Drain() ([]*Path, []*Candidate) {
	totalPaths, totalCands := 0, 0
	for _, wt := range a.perWalk {
		totalPaths += len(wt.Paths)
		totalCands += len(wt.Candidates)
	}
	paths := make([]*Path, 0, totalPaths)
	cands := make([]*Candidate, 0, totalCands)
	for _, wt := range a.perWalk {
		paths = append(paths, wt.Paths...)
		cands = append(cands, wt.Candidates...)
	}
	reg := a.tel.Registry()
	reg.Counter("tokens.paths").Add(int64(totalPaths))
	reg.Counter("tokens.candidates").Add(int64(totalCands))
	return paths, cands
}
