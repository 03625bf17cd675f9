package crumbcruncher

import (
	"encoding/json"
	"fmt"
	"io"

	"crumbcruncher/internal/uid"
)

// Metrics is the machine-readable summary of a run: every headline
// quantity from the paper's evaluation, suitable for dashboards, CI
// tracking, or cross-run comparison. WriteMetricsJSON emits it.
type Metrics struct {
	Seed  int64 `json:"seed"`
	Walks int   `json:"walks"`
	Steps int   `json:"steps"`

	// Headline (§5, §8).
	SmugglingRate float64 `json:"smuggling_rate"`
	BounceRate    float64 `json:"bounce_rate"`

	// §3.3 failures.
	NoCommonElementRate float64 `json:"no_common_element_rate"`
	DivergentRate       float64 `json:"divergent_rate"`
	ConnectFailRate     float64 `json:"connect_fail_rate"`

	// Resilience split of the connection-failure population (all zero
	// when the crawl ran without retries or transient faults).
	RetriedRequests     int     `json:"retried_requests,omitempty"`
	SitesRecovered      int     `json:"sites_transient_recovered,omitempty"`
	SitesUnreachable    int     `json:"sites_permanently_unreachable,omitempty"`
	RecoveredSiteRate   float64 `json:"transient_recovered_rate,omitempty"`
	UnreachableSiteRate float64 `json:"permanently_unreachable_rate,omitempty"`

	// Table 1.
	Table1 map[string]int `json:"table1"`

	// Table 2.
	UniqueURLPaths             int `json:"unique_url_paths"`
	UniqueURLPathsSmuggling    int `json:"unique_url_paths_smuggling"`
	UniqueDomainPathsSmuggling int `json:"unique_domain_paths_smuggling"`
	UniqueRedirectors          int `json:"unique_redirectors"`
	DedicatedSmugglers         int `json:"dedicated_smugglers"`
	MultiPurposeSmugglers      int `json:"multi_purpose_smugglers"`
	UniqueOriginators          int `json:"unique_originators"`
	UniqueDestinations         int `json:"unique_destinations"`

	// §3.7 pipeline accounting.
	Candidates        int `json:"candidates"`
	ReachedManual     int `json:"reached_manual"`
	ManuallyRemoved   int `json:"manually_removed"`
	ConfirmedUIDCases int `json:"confirmed_uid_cases"`

	// §3.7.1 lifetimes.
	Under90DayFraction float64 `json:"uid_lifetime_under_90d_fraction"`
	Under30DayFraction float64 `json:"uid_lifetime_under_30d_fraction"`

	// §5.1 / §7.1 blocklist coverage.
	DisconnectMissingFraction float64 `json:"disconnect_missing_fraction"`
	EasyListBlockedFraction   float64 `json:"easylist_blocked_fraction"`

	// §7.2 contributions. (The unique smuggling path count lives in
	// UniqueURLPathsSmuggling; a former duplicate field was removed.)
	UIDParamNames []string `json:"uid_param_names"`
	SmugglerHosts []string `json:"dedicated_smuggler_hosts"`
}

// ComputeMetrics extracts the run's headline quantities.
func ComputeMetrics(r *Run) Metrics {
	s := r.Analysis.Summarize()
	fr := r.Analysis.FailureRates()
	rs := r.Analysis.Resilience()
	lt := uid.ComputeLifetimeStats(r.Cases, r.Lifetimes)
	buckets := uid.BucketCounts(r.Cases)
	t1 := make(map[string]int, len(buckets))
	for b, n := range buckets {
		t1[string(b)] = n
	}
	return Metrics{
		Seed:  r.Config.World.Seed,
		Walks: r.Analysis.WalkCount(),
		Steps: r.Analysis.StepCount(),

		SmugglingRate: r.Analysis.SmugglingRate(),
		BounceRate:    r.Analysis.BounceRate(),

		NoCommonElementRate: fr.NoCommonElement,
		DivergentRate:       fr.Divergent,
		ConnectFailRate:     fr.ConnectError,

		RetriedRequests:     rs.RetriedRequests,
		SitesRecovered:      rs.SitesRecovered,
		SitesUnreachable:    rs.SitesUnreachable,
		RecoveredSiteRate:   rs.RecoveredRate,
		UnreachableSiteRate: rs.UnreachableRate,

		Table1: t1,

		UniqueURLPaths:             s.UniqueURLPaths,
		UniqueURLPathsSmuggling:    s.UniqueURLPathsSmuggling,
		UniqueDomainPathsSmuggling: s.UniqueDomainPathsSmuggling,
		UniqueRedirectors:          s.UniqueRedirectors,
		DedicatedSmugglers:         s.DedicatedSmugglers,
		MultiPurposeSmugglers:      s.MultiPurposeSmugglers,
		UniqueOriginators:          s.UniqueOriginators,
		UniqueDestinations:         s.UniqueDestinations,

		Candidates:        r.Stats.Candidates,
		ReachedManual:     r.Stats.AfterProgrammatic,
		ManuallyRemoved:   r.Stats.ManuallyRemoved,
		ConfirmedUIDCases: r.Stats.Final,

		Under90DayFraction: lt.Under90Fraction(),
		Under30DayFraction: lt.Under30Fraction(),

		DisconnectMissingFraction: r.DisconnectDomains().MissingFraction(r.Analysis.DedicatedSmugglers()),
		EasyListBlockedFraction:   r.EasyList().BlockedFraction(r.Analysis.SmugglingURLs()),

		UIDParamNames: r.Analysis.SmugglerParamNames(),
		SmugglerHosts: r.Analysis.DedicatedSmugglers(),
	}
}

// WriteMetricsJSON writes the run's metrics as indented JSON. If
// replaying the run's walks for the figures failed (a store read error
// after AnalyzeStore), it writes nothing and returns that error rather
// than metrics over part of the crawl.
func WriteMetricsJSON(w io.Writer, r *Run) error {
	m := ComputeMetrics(r)
	if err := r.Analysis.Err(); err != nil {
		return fmt.Errorf("crumbcruncher: metrics: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
