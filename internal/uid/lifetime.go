package uid

import (
	"time"

	"crumbcruncher/internal/crawler"
)

// LifetimeIndex maps token values to the lifetime of the cookie that
// stored them, built by a LifetimeAccumulator from the crawl's storage
// snapshots. Session cookies index as lifetime 0.
type LifetimeIndex struct {
	byValue map[string]time.Duration
}

// scanWalkLifetimes records every cookie in one walk's snapshots into
// into, first occurrence wins. A cookie value always maps to the same
// lifetime (the value is minted with the cookie), so first-wins is
// order-insensitive.
func scanWalkLifetimes(w *crawler.Walk, into map[string]time.Duration) {
	add := func(snap crawler.Snapshot) {
		for _, c := range snap.Cookies {
			if _, ok := into[c.Value]; ok {
				continue
			}
			if c.Expires.IsZero() {
				into[c.Value] = 0
				continue
			}
			into[c.Value] = c.Expires.Sub(c.Created)
		}
	}
	if w == nil {
		return
	}
	for _, rec := range w.SeedLoad {
		add(rec.Before)
		add(rec.After)
	}
	for _, s := range w.Steps {
		for _, rec := range s.Records {
			add(rec.Before)
			add(rec.After)
		}
	}
}

// Lifetime implements Options.LifetimeOf.
func (idx *LifetimeIndex) Lifetime(value string) (time.Duration, bool) {
	d, ok := idx.byValue[value]
	return d, ok
}

// LifetimeStats reports the fraction of identified UIDs whose storing
// cookie lived under each threshold — the paper's §3.7.1 observation that
// 16% of UIDs live under 90 days and 9% under a month, which prior work's
// lifetime heuristics would have discarded.
type LifetimeStats struct {
	WithCookie  int
	Under90Days int
	Under30Days int
}

// Under90Fraction returns the <90d share of UIDs with a known cookie.
func (s LifetimeStats) Under90Fraction() float64 {
	if s.WithCookie == 0 {
		return 0
	}
	return float64(s.Under90Days) / float64(s.WithCookie)
}

// Under30Fraction returns the <30d share.
func (s LifetimeStats) Under30Fraction() float64 {
	if s.WithCookie == 0 {
		return 0
	}
	return float64(s.Under30Days) / float64(s.WithCookie)
}

// ComputeLifetimeStats matches case values against the index. UIDs whose
// storing cookie was never observed (e.g. partition-bucket ad IDs) are
// excluded, as in the paper's sampled analysis.
func ComputeLifetimeStats(cases []*Case, idx *LifetimeIndex) LifetimeStats {
	var out LifetimeStats
	for _, c := range cases {
		lt, ok := lifetimeOfCase(c, idx)
		if !ok {
			continue
		}
		out.WithCookie++
		if lt > 0 && lt < 90*24*time.Hour {
			out.Under90Days++
		}
		if lt > 0 && lt < 30*24*time.Hour {
			out.Under30Days++
		}
	}
	return out
}

func lifetimeOfCase(c *Case, idx *LifetimeIndex) (time.Duration, bool) {
	for _, v := range c.Values {
		if lt, ok := idx.Lifetime(v); ok {
			return lt, true
		}
	}
	return 0, false
}
