package dom

import (
	"fmt"
	"strings"
	"testing"
)

// dumpTree writes n's subtree as one line per node, indented by depth,
// with every field Parse sets.
func dumpTree(b *strings.Builder, n *Node, depth int) {
	fmt.Fprintf(b, "%s%d %q %q %q\n", strings.Repeat(" ", depth), n.Type, n.Tag, n.Text, n.Attrs)
	for _, c := range n.Children {
		dumpTree(b, c, depth+1)
	}
}

// FuzzParse feeds arbitrary bytes to the parser: it must not panic, and
// parsing the same input twice must give the same tree. The seed corpus
// in testdata/fuzz/FuzzParse holds the inputs of this package's parser
// tests and runs under plain `go test`.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, html string) {
		var first, second strings.Builder
		dumpTree(&first, Parse(html), 0)
		dumpTree(&second, Parse(html), 0)
		if first.String() != second.String() {
			t.Fatalf("two parses of %q differ:\n%s\nvs\n%s", html, first.String(), second.String())
		}
	})
}
