// Package report renders CrumbCruncher's results as text tables and bar
// charts: one renderer per table and figure in the paper, plus a combined
// report used by cmd/crumbcruncher and EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/uid"
)

// Table writes an aligned text table.
func Table(w io.Writer, title string, headers []string, rows [][]string) {
	if title != "" {
		fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// BarChart writes a horizontal ASCII bar chart.
func BarChart(w io.Writer, title string, entries []stats.Entry, width int) {
	if width <= 0 {
		width = 40
	}
	if title != "" {
		fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	}
	maxCount, maxKey := 1, 0
	for _, e := range entries {
		if e.Count > maxCount {
			maxCount = e.Count
		}
		if len(e.Key) > maxKey {
			maxKey = len(e.Key)
		}
	}
	for _, e := range entries {
		n := e.Count * width / maxCount
		fmt.Fprintf(w, "%s  %s %d\n", pad(e.Key, maxKey), strings.Repeat("█", n), e.Count)
	}
	fmt.Fprintln(w)
}

// Render writes the complete evaluation report for a run: every table and
// figure from the paper's §5, plus the methodology statistics of §3.
func Render(w io.Writer, r *core.Run) {
	s := r.Analysis.Summarize()
	fmt.Fprintf(w, "CrumbCruncher measurement report (seed %d, %d walks, %d steps)\n\n",
		r.Config.World.Seed, r.Analysis.WalkCount(), r.Analysis.StepCount())
	if err := r.Analysis.Err(); err != nil {
		fmt.Fprintf(w, "ERROR: replaying the crawl's walks failed; the step count, failure rates, resilience split, Figure 6 and UID provenance below cover only the walks read before it: %v\n\n", err)
	}

	// Headline (§5).
	fmt.Fprintf(w, "UID smuggling on %.2f%% of unique URL paths (paper: 8.11%%)\n", 100*r.Analysis.SmugglingRate())
	fmt.Fprintf(w, "Bounce tracking without smuggling on %.2f%% (paper: 2.7%%)\n\n", 100*r.Analysis.BounceRate())

	// §3.3 failure rates.
	fr := r.Analysis.FailureRates()
	Table(w, "Crawl failure rates (§3.3)", []string{"Failure", "Measured", "Paper"}, [][]string{
		{"No common element (steps)", pct(fr.NoCommonElement), "7.6%"},
		{"Divergent landing (steps)", pct(fr.Divergent), "1.8%"},
		{"Connection failures (sites)", pct(fr.ConnectError), "3.3%"},
	})

	// Resilience split: the paper's 3.3% treats every connection failure
	// as a lost site; with retries enabled, part of that population is
	// transient and recovered.
	if rs := r.Analysis.Resilience(); rs.SitesRecovered > 0 || rs.RetriedRequests > 0 {
		fmt.Fprintf(w, "Resilience: %d retried requests; %d sites transient-recovered (%s), %d permanently unreachable (%s; the paper's 3.3%% counts both)\n\n",
			rs.RetriedRequests, rs.SitesRecovered, pct(rs.RecoveredRate),
			rs.SitesUnreachable, pct(rs.UnreachableRate))
	}

	// Transport-level failure rate from the network simulator's own
	// request accounting. A re-analysed saved run rebuilds the world
	// without crawling it, so its network has no traffic to report.
	if reqs := r.World.Network().RequestCount(); reqs > 0 {
		fails := r.World.Network().FailureCount()
		fmt.Fprintf(w, "Transport: %d requests, %d failed (%s observed; the paper reports 3.3%% of sites unreachable)\n\n",
			reqs, fails, pct(float64(fails)/float64(reqs)))
	}

	// Table 1.
	buckets := uid.BucketCounts(r.Cases)
	var t1 [][]string
	for _, b := range uid.Buckets {
		t1 = append(t1, []string{string(b), fmt.Sprint(buckets[b])})
	}
	Table(w, "Table 1: crawler combinations where UIDs appeared", []string{"User Profiles", "# Tokens"}, t1)

	// Table 2.
	Table(w, "Table 2: navigation paths and participants", []string{"Metric", "Value", "Paper"}, [][]string{
		{"Unique URL Paths", fmt.Sprint(s.UniqueURLPaths), "10,814"},
		{"Unique URL Paths w/ UID Smuggling", fmt.Sprint(s.UniqueURLPathsSmuggling), "850"},
		{"Unique Domain Paths w/ UID smuggling", fmt.Sprint(s.UniqueDomainPathsSmuggling), "321"},
		{"Unique Redirectors", fmt.Sprint(s.UniqueRedirectors), "214"},
		{"Dedicated Smugglers", fmt.Sprint(s.DedicatedSmugglers), "27"},
		{"Multi-Purpose Smugglers", fmt.Sprint(s.MultiPurposeSmugglers), "187"},
		{"Unique Originators", fmt.Sprint(s.UniqueOriginators), "265"},
		{"Unique Destinations", fmt.Sprint(s.UniqueDestinations), "224"},
	})

	// Table 3.
	var t3 [][]string
	for _, row := range r.Analysis.TopRedirectors(30) {
		host := row.Host
		if row.MultiPurpose {
			host += "*"
		}
		t3 = append(t3, []string{host, fmt.Sprint(row.Count), fmt.Sprintf("%.1f", row.PctDomainPaths)})
	}
	Table(w, "Table 3: most common redirectors (* = multi-purpose)", []string{"Redirector", "Count", "% Domain Paths"}, t3)

	// Figure 4.
	origs, dests := r.Analysis.TopOrganizations(r.Attributor(), 19)
	BarChart(w, "Figure 4a: most common originator organizations", origs, 40)
	BarChart(w, "Figure 4b: most common destination organizations", dests, 40)

	// Figure 5.
	co, cd := r.Analysis.CategoryBreakdown(r.Taxonomy())
	BarChart(w, "Figure 5a: originator categories (registered domains)", sortedEntries(co), 40)
	BarChart(w, "Figure 5b: destination categories (registered domains)", sortedEntries(cd), 40)

	// Figure 6.
	BarChart(w, "Figure 6: third parties receiving UIDs from destination pages", r.Analysis.ThirdPartyReceivers(20), 40)

	// Figure 7.
	var f7 [][]string
	for _, b := range r.Analysis.RedirectorHistogram() {
		f7 = append(f7, []string{
			fmt.Sprint(b.Redirectors),
			fmt.Sprint(b.NoDedicated), fmt.Sprint(b.OneDedicated), fmt.Sprint(b.TwoPlusDedicated),
		})
	}
	Table(w, "Figure 7: redirectors per smuggling URL path", []string{"Redirectors", "No dedicated", "1+ dedicated", "2+ dedicated"}, f7)

	// Figure 8.
	portions := r.Analysis.PathPortions()
	var f8 [][]string
	for _, p := range analysis.Portions {
		pc := portions[p]
		f8 = append(f8, []string{string(p), fmt.Sprint(pc.WithDedicated), fmt.Sprint(pc.WithoutDedicated)})
	}
	Table(w, "Figure 8: UIDs per traversed path portion", []string{"Portion", "Dedicated in path", "No dedicated"}, f8)

	// §3.6 token provenance.
	breakdown := r.Analysis.StorageSourceBreakdown()
	Table(w, "Confirmed UID provenance on the originator (§3.6)", []string{"Source", "UIDs"}, [][]string{
		{string(analysis.SourceCookie), fmt.Sprint(breakdown[analysis.SourceCookie])},
		{string(analysis.SourceLocalStorage), fmt.Sprint(breakdown[analysis.SourceLocalStorage])},
		{string(analysis.SourceQueryOnly), fmt.Sprint(breakdown[analysis.SourceQueryOnly])},
	})

	// §3.7 pipeline accounting.
	Table(w, "Token pipeline (§3.7)", []string{"Stage", "Count", "Paper"}, [][]string{
		{"Cross-context candidates", fmt.Sprint(r.Stats.Candidates), "-"},
		{"Token groups", fmt.Sprint(r.Stats.Groups), "-"},
		{"Discarded: same across users", fmt.Sprint(r.Stats.SameAcrossUsers), "-"},
		{"Discarded: session (repeat crawler)", fmt.Sprint(r.Stats.SessionByRepeat), "-"},
		{"Reached manual review", fmt.Sprint(r.Stats.AfterProgrammatic), "1,581"},
		{"Manually removed", fmt.Sprint(r.Stats.ManuallyRemoved), "577"},
		{"Confirmed UIDs", fmt.Sprint(r.Stats.Final), "~1,004"},
	})

	// §3.7.1 lifetimes.
	lt := uid.ComputeLifetimeStats(r.Cases, r.Lifetimes)
	Table(w, "UID cookie lifetimes (§3.7.1)", []string{"Band", "Measured", "Paper"}, [][]string{
		{"< 90 days", pct(lt.Under90Fraction()), "16%"},
		{"< 30 days", pct(lt.Under30Fraction()), "9%"},
	})

	// §3.5 fingerprinting experiment.
	if exp, err := r.Analysis.FingerprintingExperiment(r.World.Fingerprinters()); err == nil {
		Table(w, "Fingerprinting experiment (§3.5)", []string{"Quantity", "Measured", "Paper"}, [][]string{
			{"Smuggling on fingerprinting sites", pct(exp.OnFingerprinters), "13%"},
			{"Multi-crawler (fingerprinting group)", pct(exp.FPMulti.Value()), "44%"},
			{"Multi-crawler (other group)", pct(exp.NonFPMulti.Value()), "52%"},
			{"Two-proportion Z", fmt.Sprintf("%.2f (p=%.3f)", exp.Z.Z, exp.Z.PValue), "significant"},
		})
	}

	// §5.1/§7.1 blocklist coverage.
	gap := r.DisconnectDomains().MissingFraction(r.Analysis.DedicatedSmugglers())
	blocked := r.EasyList().BlockedFraction(r.Analysis.SmugglingURLs())
	Table(w, "Blocklist coverage (§5.1, §7.1)", []string{"List", "Measured", "Paper"}, [][]string{
		{"Dedicated smugglers missing from Disconnect", pct(gap), "41%"},
		{"Smuggling URLs blocked by EasyList", pct(blocked), "6%"},
	})

	// §7.2 contribution: the blocklist of confirmed UID parameters.
	fmt.Fprintf(w, "Confirmed UID parameter names (%d): %s\n",
		len(r.Analysis.SmugglerParamNames()), strings.Join(r.Analysis.SmugglerParamNames(), ", "))
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func sortedEntries(m map[string]int) []stats.Entry {
	out := make([]stats.Entry, 0, len(m))
	for k, v := range m {
		out = append(out, stats.Entry{Key: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
