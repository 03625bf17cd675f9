package web

import (
	"fmt"
	"sync"
	"testing"

	"crumbcruncher/internal/dom"
)

// memoLen reports how many domains the plan's memo holds.
func memoLen(g *worldGen) int {
	g.domains.mu.RLock()
	defer g.domains.mu.RUnlock()
	return len(g.domains.byIdx)
}

// checkDomainsMatchCoining asserts that every index's memoised domain,
// read on a cold and then a warm memo, equals a fresh coining.
func checkDomainsMatchCoining(t *testing.T, w *World) {
	t.Helper()
	g := w.gen
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < g.cfg.NumSites; i++ {
			if got, want := g.domainAt(i), g.coinDomain(i); got != want {
				t.Fatalf("pass %d: domainAt(%d) = %q, coinDomain = %q", pass, i, got, want)
			}
		}
	}
}

func TestDomainAtMatchesCoiningSmall(t *testing.T) {
	checkDomainsMatchCoining(t, BuildWorld(SmallConfig()))
}

func TestDomainAtMatchesCoiningLazy10k(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumSites = 10000
	checkDomainsMatchCoining(t, BuildWorld(cfg))
}

// TestDomainAtMemoGrowsWithTouchedIndices pins the world's memory
// contract: the memo holds only the domains the plan and the visited
// sites actually needed, never one per site.
func TestDomainAtMemoGrowsWithTouchedIndices(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumSites = 10000
	w := BuildWorld(cfg)
	planned := memoLen(w.gen)
	if planned >= cfg.NumSites/2 {
		t.Fatalf("plan alone memoised %d of %d domains", planned, cfg.NumSites)
	}
	const visits = 20
	for _, host := range w.SeedersN(visits) {
		if w.Site(host) == nil {
			t.Fatalf("Site(%q) = nil", host)
		}
	}
	touched := memoLen(w.gen)
	if touched <= planned || touched >= cfg.NumSites/2 {
		t.Fatalf("memo after %d visits = %d domains (plan %d, world %d sites)",
			visits, touched, planned, cfg.NumSites)
	}
	// Forks share the plan, so they share its memo too.
	f := w.Fork()
	f.Site(w.SeedersN(1)[0])
	if f.gen != w.gen || memoLen(f.gen) != touched {
		t.Fatalf("fork memo = %d domains, want the parent's %d", memoLen(f.gen), touched)
	}
}

// lookalikeSSO returns a real SSO member's domain and a look-alike that
// carries the same index code and TLD under a different name.
func lookalikeSSO(t *testing.T) (*World, int, string, string) {
	t.Helper()
	cfg := DefaultConfig()
	w := BuildWorld(cfg)
	best := -1
	for i, p := range w.gen.orgPlans {
		if p.sso && (best < 0 || i < best) {
			best = i
		}
	}
	if best < 0 {
		t.Fatal("world has no SSO-enabled org member")
	}
	member := w.gen.domainAt(best)
	return w, best, member, "x" + member
}

func TestSiteIndexOfRejectsLookalike(t *testing.T) {
	w, i, member, fake := lookalikeSSO(t)
	if got, ok := w.gen.siteIndexOf(member); !ok || got != i {
		t.Fatalf("siteIndexOf(%q) = %d, %v; want %d, true", member, got, ok, i)
	}
	if got, ok := w.gen.decodeIdx(fake); !ok || got != i {
		t.Fatalf("look-alike %q does not carry index %d (decoded %d, %v)", fake, i, got, ok)
	}
	if _, ok := w.gen.siteIndexOf(fake); ok {
		t.Fatalf("siteIndexOf resolved look-alike %q", fake)
	}
	if w.Site(fake) != nil {
		t.Fatalf("Site resolved look-alike %q", fake)
	}
}

func TestSSOInfoRejectsLookalike(t *testing.T) {
	w, _, member, fake := lookalikeSSO(t)
	info, ok := w.gen.ssoInfo(member)
	if !ok || info.domain != member || info.ssoHost == "" {
		t.Fatalf("ssoInfo(%q) = %+v, %v; want the member's SSO host", member, info, ok)
	}
	if info, ok := w.gen.ssoInfo(fake); ok {
		t.Fatalf("ssoInfo accepted look-alike %q: %+v", fake, info)
	}
}

// TestDomainAtConcurrentForks hammers one plan's memo from several
// forks at once; run under -race it checks the memo's locking.
func TestDomainAtConcurrentForks(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumSites = 2000
	w := BuildWorld(cfg)
	want := make([]string, cfg.NumSites)
	for i := range want {
		want[i] = w.gen.coinDomain(i)
	}
	const forks = 4
	var wg sync.WaitGroup
	errs := make(chan error, forks)
	for k := 0; k < forks; k++ {
		f := w.Fork()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; n < cfg.NumSites; n++ {
				i := (n*7919 + k*101) % cfg.NumSites
				d := f.gen.domainAt(i)
				if d != want[i] {
					errs <- fmt.Errorf("fork %d: domainAt(%d) = %q, want %q", k, i, d, want[i])
					return
				}
				if _, ok := f.gen.ssoInfo(d); ok {
					if got, ok := f.gen.siteIndexOf(d); !ok || got != i {
						errs <- fmt.Errorf("fork %d: siteIndexOf(%q) = %d, %v", k, d, got, ok)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := memoLen(w.gen); n != cfg.NumSites {
		t.Fatalf("memo holds %d domains after touching all %d", n, cfg.NumSites)
	}
}

// Benchmark sinks keep the measured calls from being optimised away.
var (
	domainSink string
	pageSink   *dom.Node
)

// BenchmarkDomainAt is the per-layer row for site-domain lookups: a
// memo hit against coining the name from a freshly seeded RNG.
func BenchmarkDomainAt(b *testing.B) {
	w := BuildWorld(DefaultConfig())
	n := w.cfg.NumSites
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			domainSink = w.gen.domainAt(i % n)
		}
	})
	b.Run("coin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			domainSink = w.gen.coinDomain(i % n)
		}
	})
}

// BenchmarkBuildPage is the per-layer row for page synthesis: the root
// page of every site of DefaultConfig's world in turn, as one client.
func BenchmarkBuildPage(b *testing.B) {
	w := BuildWorld(DefaultConfig())
	sites := w.Sites()
	v := visitor{profile: "p1", client: "c1", machine: "m1"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pageSink = w.buildPage(sites[i%len(sites)], "/", v)
	}
}
