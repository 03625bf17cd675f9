package web

import (
	"sort"

	"crumbcruncher/internal/ident"
)

// The synthetic world publishes deliberately *incomplete* defence lists,
// because the paper's list-related findings are measurements of coverage
// gaps: the Disconnect entity list knew the owner of only 45 of 436
// originator/destination domains, 41% of dedicated smugglers were missing
// from the Disconnect tracker list, and EasyList blocked only 6% of
// smuggling URLs. Coverage here is decided deterministically per domain
// from the world seed.

// EntityListDomains returns the partial domain → organisation map
// standing in for the Disconnect entity list. Membership derives per
// domain, so the returned map is coverage-sized even for a
// million-site world.
func (w *World) EntityListDomains() map[string]string {
	out := map[string]string{}
	cut := int(w.cfg.EntityListCoverage * 1000)
	add := func(d, org string) {
		if ident.ShortHash(w.cfg.Seed, 1000, "entitylist", d) < cut {
			out[d] = org
		}
	}
	for d, org := range w.gen.trackerOrgOf {
		add(d, org)
	}
	for i := 0; i < w.cfg.NumSites; i++ {
		add(w.gen.domainAt(i), w.gen.orgAt(i))
	}
	return out
}

// DisconnectList returns the partial tracker-domain list standing in for
// the Disconnect tracking-protection list. Coverage applies to tracker
// registered domains.
func (w *World) DisconnectList() []string {
	cut := int(w.cfg.DisconnectTrackerCoverage * 1000)
	var out []string
	for _, t := range w.trackers {
		if t.Kind == OrgSync {
			continue
		}
		for _, d := range t.OwnedDomains {
			if ident.ShortHash(w.cfg.Seed, 1000, "disconnect", d) < cut {
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

// EasyListRules returns the partial EasyList/EasyPrivacy-style rules.
// Coverage is deliberately thin and skips the largest networks — UID
// smuggling was too new for the lists to have caught up (§7.1) — so the
// measured blocked fraction lands near the paper's 6%.
func (w *World) EasyListRules() []string {
	var rules []string
	cut := int(w.cfg.EasyListCoverage * 4 * 1000)
	add := func(ts []*Tracker) {
		for i, t := range ts {
			if i < 1 {
				// The biggest networks are exactly the ones the lists
				// had not caught up with.
				continue
			}
			if ident.ShortHash(w.cfg.Seed, 1000, "easylist", t.Domain) < cut {
				rules = append(rules, "||"+t.Domain+"^")
			}
		}
	}
	add(w.adNetworks)
	add(w.affiliates)
	sort.Strings(rules)
	return rules
}
