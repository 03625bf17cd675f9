package tokens

import (
	"context"
	"net/url"
	"sort"
	"testing"
	"testing/quick"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/crawler"
)

func pairsMap(ps []Pair) map[string]string {
	m := map[string]string{}
	for _, p := range ps {
		m[p.Name] = p.Value
	}
	return m
}

func TestExtractPlainValue(t *testing.T) {
	got := Extract("uid", "4f2a9c1b7d8e")
	if len(got) != 1 || got[0] != (Pair{Name: "uid", Value: "4f2a9c1b7d8e"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExtractJSONObject(t *testing.T) {
	got := Extract("blob", `{"uid":"abc12345","meta":{"lang":"en-US"},"n":7}`)
	m := pairsMap(got)
	if m["blob.uid"] != "abc12345" {
		t.Fatalf("nested uid missing: %v", got)
	}
	if m["blob.meta.lang"] != "en-US" {
		t.Fatalf("deep nested missing: %v", got)
	}
	if m["blob.n"] != "7" {
		t.Fatalf("number missing: %v", got)
	}
}

func TestExtractJSONArray(t *testing.T) {
	got := Extract("a", `["x1y2z3q4","w9v8u7t6"]`)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestExtractURLValue(t *testing.T) {
	got := Extract("d", "http://shop.com/land?zclid=deadbeef01&lang=en")
	m := pairsMap(got)
	if m["zclid"] != "deadbeef01" {
		t.Fatalf("query param inside URL value not extracted: %v", got)
	}
	// The URL itself remains a token (to be removed by the URL filter).
	if m["d"] == "" {
		t.Fatalf("URL token itself missing: %v", got)
	}
}

func TestExtractPercentEncodedURL(t *testing.T) {
	enc := url.QueryEscape("http://shop.com/land?zclid=deadbeef01")
	got := Extract("d", enc)
	if pairsMap(got)["zclid"] != "deadbeef01" {
		t.Fatalf("percent-encoded URL not descended: %v", got)
	}
}

func TestExtractJSONWithEncodedURLInside(t *testing.T) {
	// The paper's example: JSON containing URL-encoded tokens.
	inner := url.QueryEscape("http://t.com/c?xuid=feedface99")
	got := Extract("payload", `{"redirect":"`+inner+`"}`)
	if pairsMap(got)["xuid"] != "feedface99" {
		t.Fatalf("nested encoded token not extracted: %v", got)
	}
}

func TestExtractQueryShapedValue(t *testing.T) {
	got := Extract("state", "a=tok1head8&b=tok2head8")
	m := pairsMap(got)
	if m["a"] != "tok1head8" || m["b"] != "tok2head8" {
		t.Fatalf("query-shaped value not split: %v", got)
	}
}

func TestExtractDepthBounded(t *testing.T) {
	// Deeply nested percent-encoding must terminate.
	v := "x"
	for i := 0; i < 20; i++ {
		v = url.QueryEscape("k=" + v)
	}
	got := Extract("deep", v)
	if len(got) == 0 {
		t.Fatal("deep value vanished")
	}
}

func TestProgrammaticFilter(t *testing.T) {
	cases := []struct {
		value string
		want  FilterReason
	}{
		{"short", TooShort},
		{"en-US", TooShort},
		{"1646092800", LooksLikeDate},    // unix seconds
		{"1646092800123", LooksLikeDate}, // unix millis
		{"2022-03-01", LooksLikeDate},
		{"2022-03-01T10:00:00", LooksLikeDate},
		{"03/15/2022", LooksLikeDate},
		{"http://shop.com/land", LooksLikeURL},
		{"www.shop.com", LooksLikeURL},
		{"shopexample.com/land", LooksLikeURL},
		{"http%3A%2F%2Fa.com%2F", LooksLikeURL},
		{"4f2a9c1b7d8e0011", KeepToken},
		{"sweetmagnolias", KeepToken}, // passes programmatic, caught by manual
		{"Dental_internal_whitepaper_topic", KeepToken},
	}
	for _, c := range cases {
		if got := ProgrammaticFilter(c.value); got != c.want {
			t.Errorf("ProgrammaticFilter(%q) = %q, want %q", c.value, got, c.want)
		}
	}
}

func TestManualReview(t *testing.T) {
	removed := []string{
		"Dental_internal_whitepaper_topic", // delimited natural language
		"share_button",
		"sweetmagnolias",   // concatenated words
		"navimail",         // semi-abbreviated brandish words
		"40.7128,-74.0060", // coordinates
		"en-US",            // locale acronym
		"sweet-magnolia-sale",
	}
	for _, v := range removed {
		if !ManualReview(v) {
			t.Errorf("ManualReview(%q) = false, want removal", v)
		}
	}
	kept := []string{
		"4f2a9c1b7d8e0011aabbccdd", // hex UID
		"a1b2c3d4e5f6",
		"xk9qj2m4nn81",
		"user_4f2a9c1b7d8e", // word + opaque part
	}
	for _, v := range kept {
		if ManualReview(v) {
			t.Errorf("ManualReview(%q) = true, want keep (conservative rule)", v)
		}
	}
}

func samplePath(t *testing.T) *Path {
	t.Helper()
	mk := func(raw string) PathNode {
		n, ok := nodeFrom(raw, nil)
		if !ok {
			t.Fatalf("bad node %q", raw)
		}
		return n
	}
	return &Path{
		Walk: 1, Step: 2, Crawler: "Safari-1", Profile: "Safari-1",
		Nodes: []PathNode{
			mk("http://news.com/?sid=sess12345"),
			mk("http://track.t.net/c?d=http%3A%2F%2Fshop.com%2Fland&zclid=deadbeef01&lang=en-US"),
			mk("http://shop.com/land?zclid=deadbeef01"),
		},
	}
}

func TestPathAccessors(t *testing.T) {
	p := samplePath(t)
	if p.Originator().Domain != "news.com" {
		t.Fatalf("originator = %q", p.Originator().Domain)
	}
	if p.Destination().Domain != "shop.com" {
		t.Fatalf("destination = %q", p.Destination().Domain)
	}
	reds := p.Redirectors()
	if len(reds) != 1 || reds[0].Host != "track.t.net" {
		t.Fatalf("redirectors = %v", reds)
	}
	if p.URLKey() == p.DomainKey() {
		t.Fatal("URL and domain keys should differ")
	}
}

func TestFindCandidatesCrossContext(t *testing.T) {
	p := samplePath(t)
	cands := FindCandidates(p)
	byName := map[string]*Candidate{}
	for _, c := range cands {
		byName[c.Name] = c
	}
	zc := byName["zclid"]
	if zc == nil {
		t.Fatalf("zclid not a candidate: %v", cands)
	}
	if zc.FirstIdx != 1 || zc.LastIdx != 2 {
		t.Fatalf("zclid portion = [%d,%d], want [1,2]", zc.FirstIdx, zc.LastIdx)
	}
	if zc.Crossings != 2 {
		t.Fatalf("zclid crossings = %d, want 2", zc.Crossings)
	}
	// The sid token never left news.com as a query param on a
	// cross-domain hop (it only sat on the originator URL).
	if byName["sid"] != nil {
		t.Fatal("sid should not be a candidate (never crossed)")
	}
	// lang crossed (it's on the redirector hop) — a false positive the
	// filters remove later. Its presence here is correct behaviour.
	if byName["lang"] == nil {
		t.Fatal("lang should be a candidate at this stage")
	}
	// The dest URL inside d= also crossed.
	if byName["d"] == nil {
		t.Fatal("d (URL token) should be a candidate at this stage")
	}
}

func TestFindCandidatesSameSiteOnly(t *testing.T) {
	mk := func(raw string) PathNode {
		n, _ := nodeFrom(raw, nil)
		return n
	}
	p := &Path{Nodes: []PathNode{
		mk("http://a.com/?x=longvalue123"),
		mk("http://sub.a.com/p?x=longvalue123"), // same registered domain
	}}
	if got := FindCandidates(p); len(got) != 0 {
		t.Fatalf("same-site transfer must not produce candidates: %v", got)
	}
}

// Property: extraction never loses a plain alphanumeric token.
func TestExtractPreservesOpaqueProperty(t *testing.T) {
	f := func(s string) bool {
		clean := ""
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
				clean += string(r)
			}
			if len(clean) > 24 {
				break
			}
		}
		if clean == "" {
			return true
		}
		got := Extract("k", clean)
		return len(got) == 1 && got[0].Value == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: candidates are deterministically ordered.
func TestCandidatesSorted(t *testing.T) {
	p := samplePath(t)
	cands := FindCandidates(p)
	if !sort.SliceIsSorted(cands, func(i, j int) bool {
		if cands[i].Name != cands[j].Name {
			return cands[i].Name < cands[j].Name
		}
		return cands[i].Value < cands[j].Value
	}) {
		t.Fatal("candidates not sorted")
	}
}

func TestPathsFromDatasetRespectsCrawlerList(t *testing.T) {
	mkRec := func(name string) *crawler.CrawlerStep {
		return &crawler.CrawlerStep{
			Crawler:  name,
			Profile:  name,
			StartURL: "http://origin.com/",
			NavChain: []browser.Hop{{URL: "http://dest.com/?q=abcdefgh", Status: 200}},
		}
	}
	ds := &crawler.Dataset{
		Crawlers: []string{"Seq-1", "Seq-2"},
		Walks: []*crawler.Walk{{
			Steps: []*crawler.Step{{
				Records: map[string]*crawler.CrawlerStep{
					"Seq-1": mkRec("Seq-1"),
					"Seq-2": mkRec("Seq-2"),
				},
			}},
		}},
	}
	ctx := context.Background()
	paths, err := PathsFromDataset(ctx, ds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2 (custom crawler names)", len(paths))
	}
	cands, err := AllCandidates(ctx, paths, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	// Records without a navigation chain are skipped.
	ds.Walks[0].Steps[0].Records["Seq-1"].NavChain = nil
	if got, _ := PathsFromDataset(ctx, ds, 1, nil); len(got) != 1 {
		t.Fatalf("paths after chain removal = %d", len(got))
	}
}
