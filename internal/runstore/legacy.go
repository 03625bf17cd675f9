package runstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runio"
)

// legacyStore serves a single-document run file — the format saved runs
// had before the RunStore existed — read-only through the Store
// interface, so old runs keep working with every runstore reader. The
// whole document decodes on open (the format offers no random access),
// which is exactly the cost profile the segment backend replaces.
type legacyStore struct {
	manifest Manifest
	walks    map[int]*crawler.Walk
	order    []int
}

// legacyDoc mirrors the single-document run layout: config and
// provenance stay raw.
type legacyDoc struct {
	runio.Header
	Config     json.RawMessage  `json:"config"`
	Provenance json.RawMessage  `json:"provenance,omitempty"`
	Dataset    *crawler.Dataset `json:"dataset"`
}

func openLegacy(path string) (Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: open %s: %w", path, err)
	}
	defer f.Close()
	var doc legacyDoc
	want := runio.Header{Format: runio.RunFormat, Version: runio.RunVersion}
	if err := runio.ReadDocument(f, want, &doc); err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", path, err)
	}
	if doc.Dataset == nil {
		return nil, fmt.Errorf("runstore: %s: document has no dataset", path)
	}
	st := &legacyStore{
		manifest: Manifest{
			Header:     runio.Header{Format: runio.WalksFormat, Version: lineWalksVersion, Seed: doc.Dataset.Seed},
			Crawlers:   doc.Dataset.Crawlers,
			Walks:      len(doc.Dataset.Walks),
			Config:     doc.Config,
			Provenance: doc.Provenance,
		},
		walks: make(map[int]*crawler.Walk, len(doc.Dataset.Walks)),
	}
	for _, w := range doc.Dataset.Walks {
		if _, dup := st.walks[w.Index]; !dup {
			st.order = append(st.order, w.Index)
		}
		st.walks[w.Index] = w
	}
	return st, nil
}

func (st *legacyStore) Manifest() Manifest { return st.manifest }
func (st *legacyStore) Walks() int         { return len(st.walks) }

func (st *legacyStore) Append(*crawler.Walk) error {
	return fmt.Errorf("runstore: legacy single-document runs are read-only")
}

func (st *legacyStore) Get(idx int) (*crawler.Walk, error) {
	w, ok := st.walks[idx]
	if !ok {
		return nil, fmt.Errorf("%w: index %d", ErrNoWalk, idx)
	}
	return w, nil
}

func (st *legacyStore) Iter() Cursor {
	order := append([]int(nil), st.order...)
	sort.Ints(order)
	return &legacyCursor{st: st, order: order}
}

func (st *legacyStore) Finalize() error { return nil }
func (st *legacyStore) Close() error    { return nil }

type legacyCursor struct {
	st    *legacyStore
	order []int
	pos   int
}

func (c *legacyCursor) Next() (*crawler.Walk, error) {
	if c.pos >= len(c.order) {
		return nil, io.EOF
	}
	idx := c.order[c.pos]
	c.pos++
	return c.st.walks[idx], nil
}

func (c *legacyCursor) Close() error { return nil }
