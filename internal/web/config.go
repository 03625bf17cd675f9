// Package web generates the synthetic web CrumbCruncher crawls: the
// substitute for the paper's live-Internet substrate. A World is a seeded,
// deterministic population of publisher/retailer/portal sites, tracker
// organisations (ad networks, link decorators, bounce trackers, analytics
// beacons, org-level syncers) and the HTTP handlers that serve them over a
// netsim.Network.
//
// Every tracking mechanism the paper catalogues is generated here as
// ordinary web content — link-decorating scripts, redirect chains through
// dedicated and multi-purpose smuggler hosts, rotating iframe ads, session
// IDs, fingerprint-derived UIDs, benign look-alike tokens — and a ground-
// truth registry records what each query parameter really is, so the
// pipeline's precision can be evaluated.
package web

// Config holds the world's scale and base rates. The defaults are
// calibrated (see calibration_test.go and EXPERIMENTS.md) so that a
// paper-scale crawl measures values close to the paper's: ~8% of unique
// URL paths with UID smuggling, ~3% bounce tracking, step failures near
// 7.6%/1.8%/3.3%, and a redirector mix dominated by dedicated smugglers.
type Config struct {
	// Seed drives every derivation in the world.
	Seed int64

	// NumSites is the number of content sites (publishers, retailers,
	// portals). The seeder list is drawn from these.
	NumSites int
	// NumAdNetworks is the number of ad-network tracker organisations.
	NumAdNetworks int
	// NumDecorators is the number of affiliate/analytics trackers that
	// decorate links on pages.
	NumDecorators int
	// NumBounceTrackers is the number of redirector organisations that
	// bounce without transferring UIDs.
	NumBounceTrackers int
	// NumAnalytics is the number of beacon-only third parties (the
	// recipients of Figure 6's accidental UID leaks).
	NumAnalytics int
	// NumSyncOrgs is the number of multi-site organisations that use link
	// decoration to synchronise UIDs across their own domains (the
	// Sports-Reference pattern of §5.2).
	NumSyncOrgs int

	// PublisherFraction is the fraction of sites that are ad-carrying
	// publishers; most of the rest are retailers (ad destinations).
	PublisherFraction float64
	// RetailerFraction is the fraction of sites that are retailers.
	RetailerFraction float64

	// AdSlotMean is the mean number of iframe ad slots on a publisher
	// page.
	AdSlotMean float64
	// ExternalLinkMean is the mean number of cross-domain anchors per
	// page.
	ExternalLinkMean float64
	// InternalLinkCount is the number of same-site anchors per page.
	InternalLinkCount int

	// PDirectDecorated is the probability an external link is decorated
	// with a UID and points straight at the destination (smuggling with
	// zero redirectors).
	PDirectDecorated float64
	// PViaSmuggler is the probability an external link routes through a
	// UID-smuggling redirector chain.
	PViaSmuggler float64
	// PViaBounce is the probability an external link routes through a
	// bounce-tracking chain (redirectors, no UID).
	PViaBounce float64

	// PDefaultAd is the probability an ad slot serves its campaign's
	// default creative (same for every crawler) rather than a rotated
	// one; rotation is what produces the paper's "dynamic" smuggling and
	// its 1.8% divergent-destination step failures.
	PDefaultAd float64
	// PAdFreeRotation is the probability a rotated creative comes from an
	// arbitrary campaign rather than one sharing the slot's default
	// destination. Same-destination rotation changes the tracker (and so
	// the smuggled parameters) without changing the landing FQDN —
	// dynamic smuggling without a divergence failure.
	PAdFreeRotation float64
	// PVolatilePage is the probability a page is fully dynamic — no
	// element matches across crawlers, producing the paper's 7.6%
	// synchronization failures.
	PVolatilePage float64

	// ConnectFailRate is the fraction of registered domains that refuse
	// connections (paper: 3.3%).
	ConnectFailRate float64

	// TransientFailRate is the fraction of domains that are flaky rather
	// than dead: the first few connection attempts of any retry sequence
	// fail with a transport error, then the domain recovers. 0 (the
	// default) injects none; retries are what turn these from losses
	// into recovered sites.
	TransientFailRate float64
	// TransientMaxFails bounds how many leading attempts a transient
	// domain fails (0: netsim's default of 2).
	TransientMaxFails int
	// HTTPDegradeRate is the fraction of domains whose first attempts
	// are answered with an injected 502/503 carrying a Retry-After hint
	// before real content is served. 0 injects none.
	HTTPDegradeRate float64
	// LatencySpikeRate is the fraction of domains whose first attempt
	// suffers a deadline-blowing latency spike. Only observable when a
	// request deadline is set. 0 injects none.
	LatencySpikeRate float64
	// SpikeLatencyMS is the extra first-attempt latency for spiky
	// domains in milliseconds (0: netsim's default of 30s).
	SpikeLatencyMS int

	// FingerprinterSiteFraction is the fraction of sites that host
	// fingerprinting trackers (the Iqbal-style list of §3.5).
	FingerprinterSiteFraction float64

	// TrackerConfidence is the probability a smuggled UID is carried all
	// the way to the destination rather than dropped mid-chain (Fig. 8's
	// partial transfers).
	TrackerConfidence float64
	// PMidChainInject is the probability a redirector injects its own
	// UID mid-chain (partial transfers that begin at a redirector).
	PMidChainInject float64

	// ChainExtraP is the geometric parameter for extra redirectors in a
	// smuggling chain beyond the first.
	ChainExtraP float64
	// MaxChain bounds redirect chain length.
	MaxChain int

	// PSessionLink is the probability a page carries a session-ID query
	// parameter on its internal links.
	PSessionLink float64
	// PSessionLeak is the probability a plain outbound link leaks the
	// session ID across the site boundary — the token class Safari-1R's
	// repeat observations exist to discard (§3.7.1).
	PSessionLeak float64
	// AdSmugglesFraction is the fraction of ad networks whose click URLs
	// carry UIDs; the rest serve untracked ads whose redirects are mere
	// bounces.
	AdSmugglesFraction float64
	// RefererDecorators is the number of affiliate trackers that decorate
	// the Referer header instead of the destination URL — transfers the
	// pipeline cannot see (the paper's §6 limitation; CrumbCruncher
	// "only look[s] for UIDs transferred in the query parameters of
	// URLs"). The evaluation harness uses ground truth to count how much
	// is missed.
	RefererDecorators int
	// SafariOnlyAdNetworks is the number of smuggling ad networks that
	// check the (spoofed) User-Agent and smuggle only on Safari — the
	// §3.4 hypothesis the paper set out to test with Chrome-3. Their
	// cases appear only on Safari crawlers, indistinguishable from
	// dynamically rotated content, which is the paper's negative result.
	SafariOnlyAdNetworks int
	// PSSOBareLogin is the probability an SSO link has no return URL, so
	// the sign-in host is visited as a destination (which is what makes
	// it multi-purpose rather than dedicated).
	PSSOBareLogin float64
	// PBenignParams is the probability an external link carries benign
	// look-alike parameters (slugs, locales, timestamps, coordinates).
	PBenignParams float64

	// ShortUIDTTLFraction is the fraction of decorator trackers whose
	// UID cookies live less than 90 days (the UIDs prior work's lifetime
	// heuristic would have discarded; paper: 16% under 90d, 9% under
	// 30d).
	ShortUIDTTLFraction float64

	// EntityListCoverage is the fraction of site-owning organisations
	// present in the Disconnect-style entity list (paper: 45/436 of
	// originator/destination registered domains had a recorded owner).
	EntityListCoverage float64
	// DisconnectTrackerCoverage is the fraction of tracker redirector
	// hosts present in the Disconnect-style tracker list (paper: 41% of
	// dedicated smugglers were MISSING, i.e. ~59% coverage).
	DisconnectTrackerCoverage float64
	// EasyListCoverage is the fraction of smuggler URL patterns present
	// in the EasyList-style filter list (paper: only 6% of smuggling
	// URLs blocked).
	EasyListCoverage float64
}

// DefaultConfig returns the calibrated paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		NumSites:          800,
		NumAdNetworks:     34,
		NumDecorators:     56,
		NumBounceTrackers: 12,
		NumAnalytics:      14,
		NumSyncOrgs:       4,

		PublisherFraction: 0.55,
		RetailerFraction:  0.30,

		AdSlotMean:        0.17,
		ExternalLinkMean:  1.2,
		InternalLinkCount: 6,

		PDirectDecorated: 0.016,
		PViaSmuggler:     0.028,
		PViaBounce:       0.05,

		PDefaultAd:      0.35,
		PAdFreeRotation: 0.45,
		PVolatilePage:   0.08,

		ConnectFailRate: 0.033,

		FingerprinterSiteFraction: 0.13,

		TrackerConfidence: 0.85,
		PMidChainInject:   0.22,

		ChainExtraP: 0.45,
		MaxChain:    6,

		PSessionLink:         0.25,
		PSessionLeak:         0.18,
		AdSmugglesFraction:   0.50,
		SafariOnlyAdNetworks: 1,
		RefererDecorators:    2,
		PSSOBareLogin:        0.3,
		PBenignParams:        0.45,

		ShortUIDTTLFraction: 0.20,

		EntityListCoverage:        0.12,
		DisconnectTrackerCoverage: 0.59,
		EasyListCoverage:          0.06,
	}
}

// SmallConfig returns a reduced world for unit and integration tests.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSites = 60
	cfg.NumAdNetworks = 5
	cfg.NumDecorators = 6
	cfg.NumBounceTrackers = 2
	cfg.NumAnalytics = 4
	cfg.NumSyncOrgs = 2
	return cfg
}

// SiteKind classifies a content site.
type SiteKind int

const (
	// Publisher sites carry ads and external links (news, sports, blogs
	// — the paper's dominant originator categories).
	Publisher SiteKind = iota
	// Retailer sites are ad destinations with landing pages and affiliate
	// programs.
	Retailer
	// Portal sites are everything else (services, corporate, reference).
	Portal
)

// String names the kind.
func (k SiteKind) String() string {
	switch k {
	case Publisher:
		return "publisher"
	case Retailer:
		return "retailer"
	default:
		return "portal"
	}
}
