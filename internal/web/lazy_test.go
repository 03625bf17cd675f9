package web

import "testing"

// TestLazyWorldStartsEmpty checks that a built world has derived no
// site before its first visit.
func TestLazyWorldStartsEmpty(t *testing.T) {
	w := BuildWorld(SmallConfig())
	w.cache.mu.RLock()
	n := len(w.cache.byIdx)
	w.cache.mu.RUnlock()
	if n != 0 {
		t.Fatalf("world materialised %d sites before any visit", n)
	}
	// Touching one host materialises that site only.
	first := w.SeedersN(1)[0]
	if w.Site(first) == nil {
		t.Fatalf("Site(%q) = nil", first)
	}
	w.cache.mu.RLock()
	n = len(w.cache.byIdx)
	w.cache.mu.RUnlock()
	if n != 1 {
		t.Fatalf("after one lookup cache holds %d sites, want 1", n)
	}
}

func TestLazyForkSharesCache(t *testing.T) {
	w := BuildWorld(SmallConfig())
	f := w.Fork()
	if f.cache != w.cache {
		t.Fatal("fork should share the site cache")
	}
	if f.gen != w.gen {
		t.Fatal("fork should share the generation plan")
	}
	d := w.SeedersN(1)[0]
	if w.Site(d) != f.Site(d) {
		t.Fatal("forked world returned a different *Site for the same domain")
	}
}
