package core

import (
	"context"
	"os"
	"sort"
	"testing"

	"crumbcruncher/internal/uid"
)

// TestCalibrationReport runs the paper-scale pipeline and prints every
// headline metric next to its paper target. It is the tool used to tune
// web.DefaultConfig's base rates; enable with CRUMB_CALIBRATE=1.
func TestCalibrationReport(t *testing.T) {
	if os.Getenv("CRUMB_CALIBRATE") == "" {
		t.Skip("set CRUMB_CALIBRATE=1 to run the paper-scale calibration")
	}
	r, err := ExecuteContext(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Analysis.Summarize()
	fr := r.Analysis.FailureRates()
	lt := uid.ComputeLifetimeStats(r.Cases, r.Lifetimes)
	buckets := uid.BucketCounts(r.Cases)
	eval := r.EvaluateTruth()

	t.Logf("steps=%d walks=%d", r.Dataset.StepCount(), len(r.Dataset.Walks))
	t.Logf("candidates=%d groups=%d", r.Stats.Candidates, r.Stats.Groups)
	t.Logf("TABLE2: urlPaths=%d (paper 10814) smugglingPaths=%d (850) domainPaths=%d (321) redirectors=%d (214) dedicated=%d (27) multi=%d (187) originators=%d (265) destinations=%d (224)",
		s.UniqueURLPaths, s.UniqueURLPathsSmuggling, s.UniqueDomainPathsSmuggling,
		s.UniqueRedirectors, s.DedicatedSmugglers, s.MultiPurposeSmugglers,
		s.UniqueOriginators, s.UniqueDestinations)
	t.Logf("HEADLINE: smuggling=%.2f%% (paper 8.11%%) bounce=%.2f%% (2.7%%)",
		100*r.Analysis.SmugglingRate(), 100*r.Analysis.BounceRate())
	t.Logf("FAILURES: noMatch=%.1f%% (7.6%%) divergent=%.1f%% (1.8%%) connect=%.1f%% (3.3%%)",
		100*fr.NoCommonElement, 100*fr.Divergent, 100*fr.ConnectError)
	t.Logf("TABLE1: pairPlus=%d (325) diffOnly=%d (171) pairOnly=%d (20) single=%d (445)",
		buckets[uid.BucketPairPlus], buckets[uid.BucketDifferentOnly],
		buckets[uid.BucketPairOnly], buckets[uid.BucketSingle])
	t.Logf("MANUAL: afterProgrammatic=%d (1581) manuallyRemoved=%d (577) final=%d (~1004)",
		r.Stats.AfterProgrammatic, r.Stats.ManuallyRemoved, r.Stats.Final)
	t.Logf("LIFETIME: under90=%.1f%% (16%%) under30=%.1f%% (9%%) withCookie=%d",
		100*lt.Under90Fraction(), 100*lt.Under30Fraction(), lt.WithCookie)
	t.Logf("PRECISION: %.3f (%d FP / %d cases)", eval.Precision(), eval.FalsePositive, eval.Cases)

	if exp, err := r.Analysis.FingerprintingExperiment(r.World.Fingerprinters()); err == nil {
		t.Logf("FP-EXP: onFP=%.1f%% (13%%) fpMulti=%.1f%% (44%%) nonFPMulti=%.1f%% (52%%) z=%.2f p=%.3f",
			100*exp.OnFingerprinters, 100*exp.FPMulti.Value(), 100*exp.NonFPMulti.Value(),
			exp.Z.Z, exp.Z.PValue)
	} else {
		t.Logf("FP-EXP: %v", err)
	}

	gap := r.DisconnectDomains().MissingFraction(r.Analysis.DedicatedSmugglers())
	blocked := r.EasyList().BlockedFraction(r.Analysis.SmugglingURLs())
	t.Logf("LISTS: disconnectGap=%.1f%% (41%%) easylistBlocked=%.1f%% (6%%)", 100*gap, 100*blocked)

	// Diagnostics: false-positive parameter names.
	fpNames := map[string]int{}
	for _, c := range r.Cases {
		if !r.World.Truth().IsUIDParam(c.Group.Name) {
			v := ""
			for _, val := range c.Values {
				v = val
				break
			}
			fpNames[c.Group.Name+"="+v]++
		}
	}
	for k, n := range fpNames {
		t.Logf("FPCASE %d %s", n, k)
	}

	// Diagnostics: which tracker sources feed each bucket.
	paramSource := map[string]string{}
	for _, tr := range r.World.Trackers() {
		if tr.Param != "" {
			paramSource[tr.Param] = tr.Kind.String()
		}
		if tr.MidParam != "" {
			paramSource[tr.MidParam] = tr.Kind.String() + "-mid"
		}
	}
	paramSource["atok"] = "sso"
	srcCount := map[string]int{}
	for _, c := range r.Cases {
		src := paramSource[c.Group.Name]
		if src == "" {
			src = "other:" + r.World.Truth().ParamKindOf(c.Group.Name).String()
		}
		srcCount[string(c.Bucket)+" | "+src]++
	}
	srcKeys := make([]string, 0, len(srcCount))
	for k := range srcCount {
		srcKeys = append(srcKeys, k)
	}
	sort.Strings(srcKeys)
	for _, k := range srcKeys {
		if srcCount[k] > 5 {
			t.Logf("SRC %4d %s", srcCount[k], k)
		}
	}

	// Diagnostics: which crawler combinations and parameter kinds make up
	// each bucket.
	combo := map[string]int{}
	for _, c := range r.Cases {
		key := string(c.Bucket) + " |"
		for _, name := range []string{"Safari-1", "Safari-1R", "Safari-2", "Chrome-3"} {
			if _, ok := c.Values[name]; ok {
				key += " " + name
			}
		}
		key += " | " + r.World.Truth().ParamKindOf(c.Group.Name).String()
		combo[key]++
	}
	keys := make([]string, 0, len(combo))
	for k := range combo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if combo[k] > 10 {
			t.Logf("COMBO %4d %s", combo[k], k)
		}
	}

	top := r.Analysis.TopRedirectors(5)
	for i, row := range top {
		t.Logf("TABLE3[%d]: %s count=%d pct=%.1f%% multi=%v", i, row.Host, row.Count, row.PctDomainPaths, row.MultiPurpose)
	}
	portions := r.Analysis.PathPortions()
	t.Logf("FIG8: %+v", portions)
	hist := r.Analysis.RedirectorHistogram()
	for _, b := range hist {
		t.Logf("FIG7[%d redirectors]: no=%d one=%d two+=%d", b.Redirectors, b.NoDedicated, b.OneDedicated, b.TwoPlusDedicated)
	}
}
