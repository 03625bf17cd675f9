package web

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/words"
)

// This file is the demand-driven core of world generation. A worldGen is
// the world's *plan*: every tracker organisation, campaign, sync-org
// slab and shortener assignment — everything whose size scales with the
// tracker population, not the site population. Sites themselves derive
// on demand as a pure function of (plan, index): deriveSite(i) draws
// from an RNG seeded only by (seed, i), never from a stream shared with
// other sites, so materialising site 731042 does not require touching
// sites 0..731041. A world derives each site on its first visit.
//
// Site domains encode their own index ("brightvalley-00k3.com"): the
// fixed-width base-36 code after the final hyphen is the site index,
// which is what lets Site(host) resolve a domain back to its site in
// O(1) without a world-sized map. Tracker domains are hyphen-free, so
// the two namespaces cannot collide; decoding validates by comparing
// against the index's coined domain, so look-alike hostnames never
// resolve.
//
// Coining a domain seeds an RNG, which costs far more than the rest of
// a page build, and page generation asks for partner and link domains
// constantly. So coined domains are memoised per index in a memo on the
// plan (domainAt): a world and all its forks share it, it fills on
// demand, and a world holds only the names it has touched.
// ssoInfo checks the plan's SSO assignment before it validates a
// domain, so the common non-SSO partner never reaches domainAt at all.

// zipfSkew is the popularity-bias exponent of the partner link graph.
const zipfSkew = 0.35

// orgPlan is one multi-site sync organisation: which site indices it
// owns, its syncing pseudo-tracker, and the SSO/breakage assignments.
type orgPlan struct {
	org      string
	sync     *Tracker
	members  []int
	sso      bool
	breakage map[int]int
}

// worldGen is the generation plan shared by a world and all its forks.
// It is immutable once built, apart from the internally locked domain
// memo.
type worldGen struct {
	cfg   Config
	truth *Truth

	// domains memoises domainAt (see domainMemo).
	domains domainMemo

	trackers   []*Tracker
	adNetworks []*Tracker
	affiliates []*Tracker
	bounces    []*Tracker
	analytics  []*Tracker

	// trackerOrgOf maps tracker registered domains to their organisation
	// (site organisations derive per index).
	trackerOrgOf map[string]string

	allCampaigns     []*Campaign
	campaignsByDest  map[string][]*Campaign
	collectorsByDest map[string][]*Tracker

	orgPlans     map[int]*orgPlan
	shortenerIdx map[int]bool

	// Aspect seeds: independent derivation roots so cheap per-index
	// decisions (kind) never perturb the expensive ones (full site).
	kindSeed   int64
	domainSeed int64
	siteSeed   int64

	// domWidth is the fixed width of the base-36 index code embedded in
	// site domains.
	domWidth int

	// Market-share weights, precomputed once for WeightedIndex draws.
	adWeights        []float64
	affWeights       []float64
	analyticsWeights []float64
}

// newWorldGen builds the plan: trackers, campaigns, org slabs, truth —
// O(trackers), independent of NumSites except for bounded index scans.
func newWorldGen(cfg Config) *worldGen {
	split := stats.NewSplitter(cfg.Seed)
	g := &worldGen{
		cfg:              cfg,
		truth:            newTruth(),
		trackerOrgOf:     make(map[string]string),
		campaignsByDest:  make(map[string][]*Campaign),
		collectorsByDest: make(map[string][]*Tracker),
		orgPlans:         make(map[int]*orgPlan),
		shortenerIdx:     make(map[int]bool),
		domains:          domainMemo{byIdx: make(map[int]string)},
		kindSeed:         split.Seed("world/kinds"),
		domainSeed:       split.Seed("world/domains"),
		siteSeed:         split.Seed("world/sites"),
		domWidth:         idxWidth(cfg.NumSites),
	}
	rng := split.RNG("world/plan")
	forge := newNameForge(split.RNG("world/names"))

	g.buildTrackers(rng, forge)
	g.buildOrgPlans(rng, forge)
	g.buildShorteners(rng)
	g.buildCampaigns(rng)
	g.registerParams()

	weightsOf := func(ts []*Tracker) []float64 {
		out := make([]float64, len(ts))
		for i, t := range ts {
			out[i] = t.Weight
		}
		return out
	}
	g.adWeights = weightsOf(g.adNetworks)
	g.affWeights = weightsOf(g.affiliates)
	g.analyticsWeights = weightsOf(g.analytics)
	return g
}

// idxWidth returns the base-36 digit count needed to encode site indices
// 0..n-1 at fixed width (minimum 2, so codes never look like words).
func idxWidth(n int) int {
	w := len(strconv.FormatInt(int64(maxInt(n-1, 0)), 36))
	if w < 2 {
		w = 2
	}
	return w
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// kindAt classifies site i. A single hashed uniform, no RNG stream: kind
// queries drive plan-time retailer scans and must stay allocation-free.
func (g *worldGen) kindAt(i int) SiteKind {
	r := stats.UnitAt(g.kindSeed, i)
	switch {
	case r < g.cfg.PublisherFraction:
		return Publisher
	case r < g.cfg.PublisherFraction+g.cfg.RetailerFraction:
		return Retailer
	default:
		return Portal
	}
}

// domainMemo caches coined site domains by index. Coining is a pure
// function of the index, so concurrent misses on one index coin the
// same string and either store wins.
type domainMemo struct {
	mu    sync.RWMutex
	byIdx map[int]string
}

// domainAt returns site i's domain, coining it on first use.
func (g *worldGen) domainAt(i int) string {
	m := &g.domains
	m.mu.RLock()
	d, ok := m.byIdx[i]
	m.mu.RUnlock()
	if ok {
		return d
	}
	d = g.coinDomain(i)
	m.mu.Lock()
	m.byIdx[i] = d
	m.mu.Unlock()
	return d
}

// coinDomain coins site i's domain from an RNG seeded by (domainSeed,
// i). The embedded index code guarantees global uniqueness, so no
// cross-site used-set is needed.
func (g *worldGen) coinDomain(i int) string {
	rng := stats.AcquireRNG(stats.DeriveSeedN(g.domainSeed, i))
	defer rng.Release()
	a := stats.Pick(rng, words.Common)
	b := stats.Pick(rng, words.Common)
	if a == b {
		b = stats.Pick(rng, words.Brandish)
	}
	tld := stats.Pick(rng, siteTLDs)
	return a + b + "-" + encodeIdx(i, g.domWidth) + tld
}

// encodeIdx renders i as fixed-width base 36.
func encodeIdx(i, width int) string {
	s := strconv.FormatInt(int64(i), 36)
	if len(s) < width {
		s = strings.Repeat("0", width-len(s)) + s
	}
	return s
}

// siteIndexOf decodes a registered domain back to its site index. It
// validates against the index's domain: only the N real site domains
// resolve.
func (g *worldGen) siteIndexOf(regDomain string) (int, bool) {
	i, ok := g.decodeIdx(regDomain)
	if !ok || g.domainAt(i) != regDomain {
		return 0, false
	}
	return i, true
}

// decodeIdx reads the site-index code out of a registered domain
// without validating the rest of the name.
func (g *worldGen) decodeIdx(regDomain string) (int, bool) {
	dot := strings.LastIndexByte(regDomain, '.')
	if dot < 0 {
		return 0, false
	}
	name := regDomain[:dot]
	dash := strings.LastIndexByte(name, '-')
	if dash < 0 || dash+1 >= len(name) {
		return 0, false
	}
	n, err := strconv.ParseInt(name[dash+1:], 36, 64)
	if err != nil || n < 0 || int(n) >= g.cfg.NumSites {
		return 0, false
	}
	return int(n), true
}

// orgAt returns site i's organisation without a full derivation.
func (g *worldGen) orgAt(i int) string {
	if p := g.orgPlans[i]; p != nil {
		return p.org
	}
	return orgFromDomain(g.domainAt(i))
}

// categoryAt returns site i's category: the first draw of the site RNG.
// Must stay in sync with deriveSite's draw order.
func (g *worldGen) categoryAt(i int) string {
	rng := stats.AcquireRNG(stats.DeriveSeedN(g.siteSeed, i))
	defer rng.Release()
	return pickCategory(rng, g.kindAt(i))
}

// fingerprintingAt replays deriveSite's rng prefix (category, then the
// fingerprinting roll) to answer membership without materialising.
func (g *worldGen) fingerprintingAt(i int) bool {
	rng := stats.AcquireRNG(stats.DeriveSeedN(g.siteSeed, i))
	defer rng.Release()
	pickCategory(rng, g.kindAt(i))
	return rng.Bool(g.cfg.FingerprinterSiteFraction)
}

// ssoRef is the pair of fields page generation needs from an SSO-capable
// partner site — resolvable from the plan alone, no materialisation.
type ssoRef struct {
	domain  string
	ssoHost string
}

// ssoInfo reports whether domain belongs to an SSO-enabled sync org.
// The plan lookup comes before validation, so most partners are
// rejected on their index code alone.
func (g *worldGen) ssoInfo(domain string) (ssoRef, bool) {
	i, ok := g.decodeIdx(domain)
	if !ok {
		return ssoRef{}, false
	}
	p := g.orgPlans[i]
	if p == nil || !p.sso || g.domainAt(i) != domain {
		return ssoRef{}, false
	}
	return ssoRef{domain: domain, ssoHost: "signin." + p.sync.Domain}, true
}

// deriveSite materialises site i. Pure function of (plan, i): every
// random draw comes from an RNG seeded by (siteSeed, i) in a fixed
// order, so derivation order across sites is irrelevant.
func (g *worldGen) deriveSite(i int) *Site {
	rng := stats.AcquireRNG(stats.DeriveSeedN(g.siteSeed, i))
	defer rng.Release()
	kind := g.kindAt(i)
	s := &Site{
		Domain:      g.domainAt(i),
		Rank:        i + 1,
		Kind:        kind,
		Category:    pickCategory(rng, kind),
		fpDecorator: map[string]bool{},
	}
	s.Org = orgFromDomain(s.Domain)
	if p := g.orgPlans[i]; p != nil {
		s.Org = p.org
		s.SyncTracker = p.sync
		for _, m := range p.members {
			if m != i {
				s.Siblings = append(s.Siblings, g.domainAt(m))
			}
		}
		if p.sso {
			s.SSOHost = "signin." + p.sync.Domain
			s.HasAccount = true
			s.BreakageClass = p.breakage[i]
		}
	}
	if g.shortenerIdx[i] {
		s.ShortenerHost = "l." + s.Domain
	}
	s.Fingerprinting = rng.Bool(g.cfg.FingerprinterSiteFraction)

	// Analytics on almost everything.
	na := 1 + rng.Intn(2)
	seen := map[string]bool{}
	for k := 0; k < na && len(g.analytics) > 0; k++ {
		t := g.analytics[rng.WeightedIndex(g.analyticsWeights)]
		if !seen[t.Domain] {
			seen[t.Domain] = true
			s.Analytics = append(s.Analytics, t)
		}
	}
	if kind == Publisher {
		// Publishers: decorators and ad slots.
		nd := 1 + rng.Intn(2)
		seen = map[string]bool{}
		for k := 0; k < nd && len(g.affiliates) > 0; k++ {
			t := g.affiliates[rng.WeightedIndex(g.affWeights)]
			if seen[t.Domain] {
				continue
			}
			seen[t.Domain] = true
			s.Decorators = append(s.Decorators, t)
			if s.Fingerprinting && rng.Bool(0.8) {
				s.fpDecorator[t.Domain] = true
			}
		}
		nn := 1 + rng.Intn(2)
		seen = map[string]bool{}
		for k := 0; k < nn && len(g.adNetworks) > 0; k++ {
			t := g.adNetworks[rng.WeightedIndex(g.adWeights)]
			if !seen[t.Domain] {
				seen[t.Domain] = true
				s.AdNetworks = append(s.AdNetworks, t)
			}
		}
		s.AdSlots = rng.Geometric(1/(1+g.cfg.AdSlotMean), 3)
		s.ExtLinks = rng.Geometric(1/(1+g.cfg.ExternalLinkMean), 6)
	} else {
		// Retailers and portals still carry a couple of external links so
		// walks continue from them.
		s.ExtLinks = rng.Intn(3)
	}

	// Partner graph: popularity-biased sampling, siblings first.
	want := 4 + rng.Intn(5)
	pseen := map[string]bool{s.Domain: true}
	for _, sib := range s.Siblings {
		if !pseen[sib] {
			s.Partners = append(s.Partners, sib)
			pseen[sib] = true
		}
	}
	for tries := 0; len(s.Partners) < want && tries < 50; tries++ {
		p := g.domainAt(stats.ZipfRank(g.cfg.NumSites, zipfSkew, rng.Float64()) - 1)
		if pseen[p] {
			continue
		}
		pseen[p] = true
		s.Partners = append(s.Partners, p)
	}

	s.Collectors = g.collectorsByDest[s.Domain]
	return s
}

// buildTrackers creates the tracker organisations.
func (g *worldGen) buildTrackers(rng *stats.RNG, forge *nameForge) {
	newTracker := func(kind TrackerKind, weight float64) *Tracker {
		domain := forge.trackerDomain()
		t := &Tracker{
			Name:         domain[:len(domain)-len(tldOf(domain))],
			Org:          forge.orgName(),
			Kind:         kind,
			Domain:       domain,
			OwnedDomains: []string{domain},
			ScriptHost:   "cdn." + domain,
			Weight:       weight,
		}
		g.trackerOrgOf[domain] = t.Org
		return t
	}

	smuggling := int(g.cfg.AdSmugglesFraction*float64(g.cfg.NumAdNetworks) + 0.5)
	for i := 0; i < g.cfg.NumAdNetworks; i++ {
		t := newTracker(AdNetwork, 1/float64(i+1))
		t.ServeHost = "serve." + t.Domain
		t.ClickHosts = []string{"adclick.g." + t.Domain}
		// The biggest networks smuggle (the DoubleClick-alikes dominate
		// Table 3); the tail serves untracked ads. A couple of
		// mid-market smuggling networks only do so on Safari, where
		// partitioned storage makes smuggling worthwhile (§3.4).
		t.Smuggles = i < smuggling
		t.SafariOnly = t.Smuggles && i >= 2 && i < 2+g.cfg.SafariOnlyAdNetworks
		// The two biggest networks own a second domain whose redirector
		// always follows the first (the awin1.com → zenaps.com pattern).
		if i < 2 {
			d2 := forge.trackerDomain()
			t.OwnedDomains = append(t.OwnedDomains, d2)
			t.ClickHosts = append(t.ClickHosts, "r."+d2)
			g.trackerOrgOf[d2] = t.Org
		}
		t.Param = forge.paramName()
		t.MidParam = forge.paramName()
		t.CookieName = "_" + t.Name + "_id"
		t.TTLDays = shortTTLFor(i, g.cfg.NumAdNetworks, g.cfg.ShortUIDTTLFraction)
		g.adNetworks = append(g.adNetworks, t)
		g.trackers = append(g.trackers, t)
	}

	for i := 0; i < g.cfg.NumDecorators; i++ {
		t := newTracker(AffiliateNetwork, 1/float64(i+1))
		t.Smuggles = true
		t.ClickHosts = []string{"track." + t.Domain}
		if rng.Bool(0.3) {
			t.ClickHosts = append(t.ClickHosts, "go."+t.Domain)
		}
		t.Param = forge.paramName()
		t.MidParam = forge.paramName()
		t.CookieName = "_" + t.Name
		t.TTLDays = shortTTLFor(i, g.cfg.NumDecorators, g.cfg.ShortUIDTTLFraction)
		if i%3 == 1 {
			t.UIDFormat = "ga"
		}
		// A few trackers smuggle via the Referer header (§6 limitation);
		// keep them off the biggest networks so the main results aren't
		// dominated by invisible transfers.
		if mid := g.cfg.NumDecorators / 2; i >= mid && i < mid+g.cfg.RefererDecorators {
			t.RefererSmuggler = true
		}
		g.affiliates = append(g.affiliates, t)
		g.trackers = append(g.trackers, t)
	}

	for i := 0; i < g.cfg.NumBounceTrackers; i++ {
		t := newTracker(BounceTracker, 1/float64(i+1))
		t.ClickHosts = []string{"b." + t.Domain}
		t.CookieName = "_" + t.Name + "_b"
		g.bounces = append(g.bounces, t)
		g.trackers = append(g.trackers, t)
	}

	for i := 0; i < g.cfg.NumAnalytics; i++ {
		t := newTracker(Analytics, 1/float64(i+1))
		t.ScriptHost = "g." + t.Domain
		t.CookieName = "_" + t.Name + "_a"
		g.analytics = append(g.analytics, t)
		g.trackers = append(g.trackers, t)
	}
}

// buildOrgPlans lays out the multi-site sync organisations:
// mid-popularity publishers owning several heavily interlinked domains
// (Sports Reference pattern). They start below the very top of the
// ranking — reference networks are popular but not Facebook-popular.
func (g *worldGen) buildOrgPlans(rng *stats.RNG, forge *nameForge) {
	idx := 25
	if idx >= g.cfg.NumSites {
		idx = 0
	}
	for o := 0; o < g.cfg.NumSyncOrgs && idx < g.cfg.NumSites; o++ {
		size := 3 + rng.Intn(3)
		org := forge.orgName()
		syncParam := forge.paramName()
		var members []int
		for k := 0; k < size && idx < g.cfg.NumSites; k++ {
			members = append(members, idx)
			idx++
		}
		if len(members) < 2 {
			continue
		}
		primaryDomain := g.domainAt(members[0])
		sync := &Tracker{
			Name:         "sync-" + primaryDomain,
			Org:          org,
			Kind:         OrgSync,
			Domain:       primaryDomain,
			OwnedDomains: []string{primaryDomain},
			Param:        syncParam,
			CookieName:   "_org_uid",
			TTLDays:      720,
		}
		g.trackers = append(g.trackers, sync)
		p := &orgPlan{org: org, sync: sync, members: members, sso: o%2 == 0}
		if p.sso {
			// Sync orgs with an SSO host: the multi-purpose login
			// redirector.
			p.breakage = make(map[int]int, len(members))
			for _, m := range members {
				p.breakage[m] = breakageClassFor(rng)
			}
		}
		for _, m := range members {
			g.orgPlans[m] = p
		}
	}
}

// buildShorteners picks a couple of popular publishers to run their own
// outbound shortener (the t.co / l.facebook.com pattern).
func (g *worldGen) buildShorteners(rng *stats.RNG) {
	limit := 20
	if limit > g.cfg.NumSites {
		limit = g.cfg.NumSites
	}
	count := 0
	for i := 0; i < limit && count < 4; i++ {
		if g.kindAt(i) == Publisher && rng.Bool(0.35) {
			g.shortenerIdx[i] = true
			count++
		}
	}
}

// buildCampaigns wires ad networks and affiliates to retailer
// destinations and builds redirect chains. Retailer destinations come
// from bounded index scans and rejection sampling, never a full-world
// materialisation.
func (g *worldGen) buildCampaigns(rng *stats.RNG) {
	// Display campaigns concentrate on the bigger advertisers, so several
	// campaigns share each destination and same-destination rotation has
	// a pool to draw from. The scan stops at the 40th retailer; with any
	// positive RetailerFraction that is a few hundred indices.
	var adRetailers []string
	for i := 0; i < g.cfg.NumSites && len(adRetailers) < 40; i++ {
		if g.kindAt(i) == Retailer {
			adRetailers = append(adRetailers, g.domainAt(i))
		}
	}
	if len(adRetailers) == 0 {
		return
	}

	// Chain hosts available for multi-tracker chains.
	var allClickHosts []string
	for _, t := range g.adNetworks {
		allClickHosts = append(allClickHosts, t.ClickHosts...)
	}
	for _, t := range g.affiliates {
		allClickHosts = append(allClickHosts, t.ClickHosts...)
	}

	for _, t := range g.adNetworks {
		n := 4 + rng.Intn(8)
		for c := 0; c < n; c++ {
			camp := &Campaign{
				ID:    fmt.Sprintf("%s-c%d", t.Name, c),
				Owner: t,
				Dest:  stats.Pick(rng, adRetailers),
				Ads:   2 + rng.Intn(4),
				Extra: campaignExtras(rng, g.truth),
			}
			// Chain: usually the network's own click host(s), sometimes
			// extended through partners, occasionally empty (direct ad
			// click → retailer).
			if !rng.Bool(0.15) {
				camp.Chain = append(camp.Chain, t.ClickHosts...)
				extra := rng.Geometric(1-g.cfg.ChainExtraP, g.cfg.MaxChain-len(camp.Chain))
				for e := 0; e < extra; e++ {
					camp.Chain = append(camp.Chain, stats.Pick(rng, allClickHosts))
				}
			}
			t.Campaigns = append(t.Campaigns, camp)
			g.allCampaigns = append(g.allCampaigns, camp)
			g.campaignsByDest[camp.Dest] = append(g.campaignsByDest[camp.Dest], camp)
		}
	}

	// Affiliate destinations: rejection-sample retailer indices. With the
	// default 30% retailer fraction a miss streak of 64 is a ~1e-10
	// event; a draw that still misses is simply skipped.
	for _, t := range g.affiliates {
		n := 3 + rng.Intn(6)
		seen := map[string]bool{}
		for c := 0; c < n; c++ {
			d := ""
			for tries := 0; tries < 64; tries++ {
				if i := rng.Intn(g.cfg.NumSites); g.kindAt(i) == Retailer {
					d = g.domainAt(i)
					break
				}
			}
			if d != "" && !seen[d] {
				seen[d] = true
				t.DestRetailers = append(t.DestRetailers, d)
			}
		}
	}

	// Destination-side collectors: every tracker that targets a retailer
	// puts its own collector script there, storing its smuggled
	// parameters with its own cookie lifetime.
	collect := map[string]map[string]*Tracker{}
	addCollector := func(dest string, t *Tracker) {
		if collect[dest] == nil {
			collect[dest] = map[string]*Tracker{}
		}
		collect[dest][t.Domain] = t
	}
	for _, t := range g.adNetworks {
		for _, c := range t.Campaigns {
			addCollector(c.Dest, t)
		}
	}
	for _, t := range g.affiliates {
		for _, d := range t.DestRetailers {
			addCollector(d, t)
		}
	}
	for dest, ts := range collect {
		domains := make([]string, 0, len(ts))
		for d := range ts {
			domains = append(domains, d)
		}
		sort.Strings(domains)
		ordered := make([]*Tracker, 0, len(domains))
		for _, d := range domains {
			ordered = append(ordered, ts[d])
		}
		g.collectorsByDest[dest] = ordered
	}
}

// registerParams records every parameter name's ground truth and the
// redirector-host classifications — all derivable from the plan.
func (g *worldGen) registerParams() {
	for _, t := range g.trackers {
		if t.Param != "" {
			g.truth.registerParam(t.Param, ParamUID)
		}
		if t.MidParam != "" {
			g.truth.registerParam(t.MidParam, ParamUID)
		}
	}
	g.truth.registerParam("atok", ParamUID) // SSO auth token: a true UID
	g.truth.registerParam("sid", ParamSession)
	g.truth.registerParam("ts", ParamTimestamp)
	g.truth.registerParam("d", ParamDest)
	g.truth.registerParam("return", ParamDest)
	g.truth.registerParam("url", ParamDest)
	for _, p := range []string{"ref", "utm_campaign", "topic", "lang", "geo", "share", "cat", "camp", "cr"} {
		g.truth.registerParam(p, ParamBenign)
	}
	for _, p := range []string{"aid", "sl", "pub", "via", "ad", "cb", "p"} {
		g.truth.registerParam(p, ParamRouting)
	}
	// Dedicated-smuggler ground truth: ad and affiliate click hosts are
	// pure redirector infrastructure — they have no purpose in a
	// navigation path besides redirecting and carrying whatever UID
	// parameters arrive. Even a non-smuggling network's click host can
	// appear inside another network's smuggling chain and forward its
	// UIDs, which is exactly the behaviour the paper's "dedicated
	// smuggler" label describes.
	for _, t := range g.adNetworks {
		for _, h := range t.ClickHosts {
			g.truth.markDedicated(h)
		}
	}
	for _, t := range g.affiliates {
		for _, h := range t.ClickHosts {
			g.truth.markDedicated(h)
		}
	}
	for _, p := range g.orgPlans {
		if p.sso {
			g.truth.markSmuggler("signin." + p.sync.Domain)
		}
	}
	for i := range g.shortenerIdx {
		if p := g.orgPlans[i]; p != nil && p.sync != nil {
			g.truth.markSmuggler("l." + g.domainAt(i))
		}
	}
}

// siteCache lazily materialised sites, shared between a world and its
// forks (sites are immutable once derived).
type siteCache struct {
	mu    sync.RWMutex
	byIdx map[int]*Site
}

func newSiteCache() *siteCache {
	return &siteCache{byIdx: make(map[int]*Site)}
}

// site returns the cached site i, deriving it on first use. Derivation
// happens outside the lock (it is pure); a losing racer's duplicate is
// discarded so every caller sees one canonical *Site per index.
func (c *siteCache) site(g *worldGen, i int) *Site {
	c.mu.RLock()
	s := c.byIdx[i]
	c.mu.RUnlock()
	if s != nil {
		return s
	}
	derived := g.deriveSite(i)
	c.mu.Lock()
	if s = c.byIdx[i]; s == nil {
		c.byIdx[i] = derived
		s = derived
	}
	c.mu.Unlock()
	return s
}
