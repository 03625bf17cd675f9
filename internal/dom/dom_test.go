package dom

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const samplePage = `<!DOCTYPE html>
<html>
<head><title>Shop</title><meta charset="utf-8"></head>
<body>
<nav id="top"><a href="/home">Home</a><a href="/deals">Deals</a></nav>
<div class="content">
  <h1>Welcome</h1>
  <p>Some text with &amp; entity.</p>
  <a href="https://other.example/path?x=1" rel="sponsored">Ad link</a>
  <iframe src="https://ads.example/slot/1" width="300" height="250"></iframe>
</div>
<script>var x = 1 < 2;</script>
</body>
</html>`

func TestParseBasicStructure(t *testing.T) {
	doc := Parse(samplePage)
	anchors := doc.ElementsByTag("a")
	if len(anchors) != 3 {
		t.Fatalf("anchors = %d, want 3", len(anchors))
	}
	iframes := doc.ElementsByTag("iframe")
	if len(iframes) != 1 {
		t.Fatalf("iframes = %d, want 1", len(iframes))
	}
	if got := iframes[0].AttrOr("src", ""); got != "https://ads.example/slot/1" {
		t.Fatalf("iframe src = %q", got)
	}
	if nav := doc.ByID("top"); nav == nil || nav.Tag != "nav" {
		t.Fatal("ByID failed to find nav#top")
	}
}

func TestParseEntities(t *testing.T) {
	doc := Parse(`<p title="a&amp;b">x &lt; y</p>`)
	p := doc.ElementsByTag("p")[0]
	if v, _ := p.Attr("title"); v != "a&b" {
		t.Fatalf("attr entity: %q", v)
	}
	if got := strings.TrimSpace(p.InnerText()); got != "x < y" {
		t.Fatalf("text entity: %q", got)
	}
}

func TestParseScriptRawText(t *testing.T) {
	doc := Parse(`<script>if (a < b && c > d) { go(); }</script><p>after</p>`)
	scripts := doc.ElementsByTag("script")
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	if !strings.Contains(scripts[0].InnerText(), "a < b && c > d") {
		t.Fatalf("script body mangled: %q", scripts[0].InnerText())
	}
	if len(doc.ElementsByTag("p")) != 1 {
		t.Fatal("content after script lost")
	}
}

// TestParseRawTextNonASCII pins that the closer scan indexes the
// original document: upper-case runes whose lower case has a different
// byte length must not shift where the script text ends.
func TestParseRawTextNonASCII(t *testing.T) {
	doc := Parse(`<script>var s="İİİİ";</SCRIPT><a href="/x">x</a>`)
	scripts := doc.ElementsByTag("script")
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	if got, want := scripts[0].InnerText(), `var s="İİİİ";`; got != want {
		t.Fatalf("script text = %q, want %q", got, want)
	}
	links := doc.ElementsByTag("a")
	if len(links) != 1 {
		t.Fatalf("links after script = %d, want 1", len(links))
	}
	if href, _ := links[0].Attr("href"); href != "/x" {
		t.Fatalf("href = %q", href)
	}
}

// TestParseRawTextClosers covers closer matching: ASCII case folds,
// non-ASCII look-alikes and other tags do not close the element, and a
// missing closer keeps the rest of the document as raw text.
func TestParseRawTextClosers(t *testing.T) {
	cases := []struct {
		name, html, tag, text string
		after                 int // <p> elements parsed after the raw text
	}{
		{"lower", `<script>a()</script><p>x</p>`, "script", "a()", 1},
		{"upper", `<script>a()</SCRIPT><p>x</p>`, "script", "a()", 1},
		{"mixed", `<script>a()</ScRiPt ><p>x</p>`, "script", "a()", 1},
		{"style mixed", `<style>p{}</sTyLe><p>x</p>`, "style", "p{}", 1},
		{"other closer", `<script>"</p></scrip"</script><p>x</p>`, "script", `"</p></scrip"`, 1},
		{"long s is not s", "<script>a()</ſcript><p>x</p>", "script", "a()</ſcript><p>x</p>", 0},
		{"dotted I is not i", "<script>a</scrİpt></script><p>x</p>", "script", "a</scrİpt>", 1},
		{"missing closer", `<script>a() <p>x</p>`, "script", "a() <p>x</p>", 0},
		{"truncated closer", `<script>a()</scr`, "script", "a()</scr", 0},
		{"empty", `<script></script><p>x</p>`, "script", "", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := Parse(c.html)
			els := doc.ElementsByTag(c.tag)
			if len(els) != 1 {
				t.Fatalf("<%s> elements = %d, want 1", c.tag, len(els))
			}
			if got := els[0].InnerText(); got != c.text {
				t.Errorf("raw text = %q, want %q", got, c.text)
			}
			if got := len(doc.ElementsByTag("p")); got != c.after {
				t.Errorf("<p> after raw text = %d, want %d", got, c.after)
			}
		})
	}
}

// parseSink keeps the measured parse from being optimised away.
var parseSink *Node

// BenchmarkParse parses pages carrying 10, 100 and 1000 inline scripts
// among ordinary markup. Time per op should grow linearly with the
// script count.
func BenchmarkParse(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		var page strings.Builder
		page.WriteString("<html><body>")
		for i := 0; i < n; i++ {
			page.WriteString(`<div class="c"><a href="/p?i=1">link</a></div>`)
			page.WriteString(`<script>window.q=(window.q||[]).push({t:"ev",v:1});</SCRIPT>`)
		}
		page.WriteString("</body></html>")
		html := page.String()
		b.Run(fmt.Sprintf("scripts=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(html)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseSink = Parse(html)
			}
		})
	}
}

func TestParseVoidAndSelfClosing(t *testing.T) {
	doc := Parse(`<div><img src="/a.png"><br/><input type="text"></div><p>sib</p>`)
	div := doc.ElementsByTag("div")[0]
	if len(div.ElementsByTag("img")) != 1 || len(div.ElementsByTag("input")) != 1 {
		t.Fatal("void elements not children of div")
	}
	// p must be a sibling of div, not nested inside img.
	p := doc.ElementsByTag("p")[0]
	if p.Parent.Tag != "#document" {
		t.Fatalf("p parent = %q", p.Parent.Tag)
	}
}

func TestParseToleratesMalformed(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<div",
		"</nothing>",
		"<div><span>unclosed",
		"<a href=>x</a>",
		"<a href='unterminated>x",
		"<!-- unterminated comment",
		"<p>text<p>more", // unclosed p elements
	}
	for _, c := range cases {
		doc := Parse(c) // must not panic
		if doc == nil {
			t.Fatalf("Parse(%q) returned nil", c)
		}
	}
}

func TestParseBooleanAttr(t *testing.T) {
	doc := Parse(`<input disabled type="text">`)
	in := doc.ElementsByTag("input")[0]
	if _, ok := in.Attr("disabled"); !ok {
		t.Fatal("boolean attribute lost")
	}
	if got := in.AttrNames(); len(got) != 2 || got[0] != "disabled" || got[1] != "type" {
		t.Fatalf("AttrNames = %v", got)
	}
}

func TestXPath(t *testing.T) {
	doc := Parse(`<html><body><div><a href="1">x</a><span></span><a href="2">y</a></div></body></html>`)
	anchors := doc.ElementsByTag("a")
	if got := anchors[0].XPath(); got != "/html[1]/body[1]/div[1]/a[1]" {
		t.Fatalf("xpath[0] = %q", got)
	}
	if got := anchors[1].XPath(); got != "/html[1]/body[1]/div[1]/a[2]" {
		t.Fatalf("xpath[1] = %q", got)
	}
}

func TestSetAttrAndRoundTrip(t *testing.T) {
	el := NewElement("a", "href", "/x")
	el.SetAttr("href", "/y")
	el.SetAttr("rel", "nofollow")
	if got := el.AttrOr("href", ""); got != "/y" {
		t.Fatalf("SetAttr replace failed: %q", got)
	}
	if got := el.AttrOr("rel", ""); got != "nofollow" {
		t.Fatalf("SetAttr add failed: %q", got)
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	doc := Parse(samplePage)
	rendered := Render(doc)
	doc2 := Parse(rendered)
	if len(doc.ElementsByTag("a")) != len(doc2.ElementsByTag("a")) {
		t.Fatal("anchor count changed across round trip")
	}
	a1 := doc.ElementsByTag("a")[2]
	a2 := doc2.ElementsByTag("a")[2]
	if a1.AttrOr("href", "") != a2.AttrOr("href", "") {
		t.Fatal("href changed across round trip")
	}
	if a1.XPath() != a2.XPath() {
		t.Fatalf("xpath changed: %q vs %q", a1.XPath(), a2.XPath())
	}
}

func TestRenderEscaping(t *testing.T) {
	el := NewElement("a", "href", `/x?a=1&b="q"`)
	el.AppendChild(NewText("5 < 6 & 7 > 2"))
	html := Render(el)
	doc := Parse(html)
	a := doc.ElementsByTag("a")[0]
	if got := a.AttrOr("href", ""); got != `/x?a=1&b="q"` {
		t.Fatalf("attr round trip: %q", got)
	}
	if got := a.InnerText(); got != "5 < 6 & 7 > 2" {
		t.Fatalf("text round trip: %q", got)
	}
}

func TestLayoutVerticalStacking(t *testing.T) {
	doc := Parse(`<html><body><div id="a" height="100"></div><div id="b" height="50"></div></body></html>`)
	Layout(doc, 1280)
	a, b := doc.ByID("a"), doc.ByID("b")
	if a.Box.H != 100 {
		t.Fatalf("a height = %d", a.Box.H)
	}
	if b.Box.Y <= a.Box.Y {
		t.Fatalf("b (y=%d) should be below a (y=%d)", b.Box.Y, a.Box.Y)
	}
}

func TestLayoutDynamicContentShiftsOnlyY(t *testing.T) {
	// The same iframe rendered below differently sized dynamic content
	// must keep x/w/h and differ only in y — the invariant behind matching
	// heuristic 2.
	page := func(bannerH int) *Node {
		doc := Parse(`<html><body><div id="banner"></div><iframe id="ad" src="/s" width="300" height="250"></iframe></body></html>`)
		doc.ByID("banner").SetAttr("height", itoa(bannerH))
		Layout(doc, 1280)
		return doc
	}
	p1, p2 := page(60), page(200)
	ad1, ad2 := p1.ByID("ad"), p2.ByID("ad")
	if ad1.Box.X != ad2.Box.X || ad1.Box.W != ad2.Box.W || ad1.Box.H != ad2.Box.H {
		t.Fatalf("x/w/h changed: %v vs %v", ad1.Box, ad2.Box)
	}
	if ad1.Box.Y == ad2.Box.Y {
		t.Fatal("y should differ when content above resizes")
	}
}

func TestLayoutInlineWrapping(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<html><body><div>")
	for i := 0; i < 20; i++ {
		sb.WriteString(`<a href="/x">link</a>`)
	}
	sb.WriteString("</div></body></html>")
	doc := Parse(sb.String())
	Layout(doc, 400)
	anchors := doc.ElementsByTag("a")
	rows := map[int]bool{}
	for _, a := range anchors {
		rows[a.Box.Y] = true
		if a.Box.X+a.Box.W > 400+160 {
			t.Fatalf("anchor exceeds viewport badly: %v", a.Box)
		}
	}
	if len(rows) < 2 {
		t.Fatal("20 anchors at 160px in 400px viewport should wrap to multiple rows")
	}
}

func TestLayoutZeroViewportDefaults(t *testing.T) {
	doc := Parse(`<html><body><p>x</p></body></html>`)
	Layout(doc, 0) // must not panic; defaults to 1280
	p := doc.ElementsByTag("p")[0]
	if p.Box.W != 1280 {
		t.Fatalf("full-width p = %d, want 1280", p.Box.W)
	}
}

// Property: Render then Parse preserves element count and tag multiset for
// generator-shaped trees.
func TestRoundTripProperty(t *testing.T) {
	f := func(hrefs []string, useIframe bool) bool {
		body := NewElement("body")
		for i, h := range hrefs {
			if i > 10 {
				break
			}
			a := NewElement("a", "href", h)
			a.AppendChild(NewText("t"))
			body.AppendChild(a)
		}
		if useIframe {
			body.AppendChild(NewElement("iframe", "src", "/slot"))
		}
		html := NewElement("html")
		html.AppendChild(body)
		doc2 := Parse(Render(html))
		wantA := len(body.ElementsByTag("a"))
		wantI := len(body.ElementsByTag("iframe"))
		return len(doc2.ElementsByTag("a")) == wantA && len(doc2.ElementsByTag("iframe")) == wantI
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
