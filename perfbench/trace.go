package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer records the harness's own spans in memory: one span around
// each call the benchmark makes into a layer's public functions. It is
// only attached in a traced run (--trace 1); untraced runs pass a nil
// *Tracer, whose methods all return nil spans at the cost of a nil
// check, so end-to-end numbers carry no tracing work.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []*Span
}

// Span is one timed call: Layer names the layer whose public function
// the harness called ("bench" for the harness itself), Trace groups the
// spans of one operation or probe, and Parent is the enclosing span (0
// for a trace's root). T0 and T1 are nanoseconds since the tracer
// was created.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	T0     int64  `json:"start_ns"`
	T1     int64  `json:"end_ns"`

	t *Tracer
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *Tracer) add(s *Span) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// Root opens the root span of a new trace.
func (t *Tracer) Root(layer, name string) *Span {
	if t == nil {
		return nil
	}
	return t.add(&Span{Layer: layer, Name: name, T0: t.now(), T1: -1, t: t})
}

// Child opens a span nested in s.
func (s *Span) Child(layer, name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.add(&Span{Parent: s.ID, Trace: s.Trace, Layer: layer, Name: name, T0: s.t.now(), T1: -1, t: s.t})
}

// Interval records a finished child of s from explicit wall times, for
// a phase the harness observes only through callbacks (the crawl inside
// core.ExecuteInWorld ends at the last progress report, not at a call
// boundary).
func (s *Span) Interval(layer, name string, from, to time.Time) {
	if s == nil {
		return
	}
	s.t.add(&Span{Parent: s.ID, Trace: s.Trace, Layer: layer, Name: name,
		T0: int64(from.Sub(s.t.origin)), T1: int64(to.Sub(s.t.origin)), t: s.t})
}

// End closes the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.now()
	s.t.mu.Lock()
	s.T1 = end
	s.t.mu.Unlock()
}

// Call runs fn inside a child span of s.
func (s *Span) Call(layer, name string, fn func()) {
	c := s.Child(layer, name)
	fn()
	c.End()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
	}
	return out
}

// WriteJSONL writes every span as one JSON object per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes is the per-layer breakdown of a set of traces.
type SelfTimes struct {
	Roots    int                      // traces summarised
	RootTime time.Duration            // summed duration of their root spans
	Self     map[string]time.Duration // per-layer self time
	Unended  int                      // spans never ended (an instrumentation bug)
}

// Sum is the total self time over every layer.
func (st SelfTimes) Sum() time.Duration {
	var d time.Duration
	for _, v := range st.Self {
		d += v
	}
	return d
}

// Layers returns the layers by descending self time.
func (st SelfTimes) Layers() []string {
	out := make([]string, 0, len(st.Self))
	for l := range st.Self {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if st.Self[out[i]] != st.Self[out[j]] {
			return st.Self[out[i]] > st.Self[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// ComputeSelfTimes sums, per layer, each span's duration minus the part
// of its interval that its children cover, over the traces whose root
// span is named rootName. Within one trace the harness makes its calls
// sequentially, so the self times of a trace add up to its root.
func ComputeSelfTimes(spans []Span, rootName string) SelfTimes {
	st := SelfTimes{Self: map[string]time.Duration{}}
	keep := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			keep[s.Trace] = true
		}
	}
	children := map[int][]Span{}
	for _, s := range spans {
		if !keep[s.Trace] {
			continue
		}
		if s.T1 < 0 {
			st.Unended++
			continue
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if !keep[s.Trace] || s.T1 < 0 {
			continue
		}
		dur := s.T1 - s.T0
		if s.Parent == 0 {
			st.Roots++
			st.RootTime += time.Duration(dur)
		}
		st.Self[s.Layer] += time.Duration(dur - covered(s, children[s.ID]))
	}
	return st
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.T0, parent.T0), min(k.T1, parent.T1)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// printSelfTimes writes a layer table: self time, share of the summed
// root spans, and whether the self times reconcile with the roots.
func printSelfTimes(w io.Writer, title string, st SelfTimes) bool {
	fmt.Fprintf(w, "trace %s: %d traces, root total %.3fs\n", title, st.Roots, st.RootTime.Seconds())
	root := st.RootTime.Seconds()
	for _, l := range st.Layers() {
		share := 0.0
		if root > 0 {
			share = st.Self[l].Seconds() / root
		}
		fmt.Fprintf(w, "  %-10s self %9.4fs  %5.1f%% of root\n", l, st.Self[l].Seconds(), 100*share)
	}
	gap := 0.0
	if root > 0 {
		gap = (st.Sum().Seconds() - root) / root
	}
	ok := st.Unended == 0 && gap <= selfTimeTolerance && gap >= -selfTimeTolerance
	fmt.Fprintf(w, "  self times sum to %.4fs = root %+.3f%% (tolerance ±%.1f%%, unended spans %d): %s\n",
		st.Sum().Seconds(), 100*gap, 100*selfTimeTolerance, st.Unended, verdict(ok))
	return ok
}

// selfTimeTolerance bounds how far the summed self times may stray from
// the summed roots. Sequential, properly nested spans reconcile exactly;
// a gap means a span escaped its parent or overlapped a sibling.
const selfTimeTolerance = 0.01

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}
