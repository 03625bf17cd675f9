package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// WriteJSONL writes the tracer's retained spans as JSON Lines, oldest
// first — the archive format cmd/crumbtrace summarizes. Safe on nil
// (writes nothing).
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range tr.Spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("telemetry: encode span: %w", err)
		}
	}
	return bw.Flush()
}

// WriteJSONLFile writes the trace to path.
func (tr *Tracer) WriteJSONLFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	return tr.WriteJSONL(f)
}

// ReadSpans decodes a JSONL trace stream.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: decode span %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
}

// ReadSpansFile decodes the JSONL trace at path.
func ReadSpansFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	return ReadSpans(f)
}

// LayerStat aggregates one layer's spans in a trace summary.
type LayerStat struct {
	Layer    string        `json:"layer"`
	Spans    int           `json:"spans"`
	Errors   int           `json:"errors"`
	WallTime time.Duration `json:"wall_ns"`
	// WallHist buckets span wall times (microseconds, log2).
	WallHist HistogramSnapshot `json:"wall_hist_us"`
}

// FaultEvent is one errored span on the trace's virtual timeline.
type FaultEvent struct {
	VirtualTime time.Time `json:"virtual_time"`
	Layer       string    `json:"layer"`
	Name        string    `json:"name"`
	Err         string    `json:"err"`
}

// TraceSummary is what crumbtrace renders: per-layer aggregates, the
// slowest spans by wall time, and the fault timeline in virtual order.
type TraceSummary struct {
	Spans    int          `json:"spans"`
	Layers   []LayerStat  `json:"layers"`
	Slowest  []Span       `json:"slowest"`
	Faults   []FaultEvent `json:"faults"`
	VStart   time.Time    `json:"virtual_start"`
	VEnd     time.Time    `json:"virtual_end"`
	WallTime int64        `json:"total_wall_ns"`
}

// Summarize aggregates a span list into a TraceSummary, keeping the
// topSlow slowest spans (by wall time; <= 0 means 10).
func Summarize(spans []Span, topSlow int) TraceSummary {
	if topSlow <= 0 {
		topSlow = 10
	}
	sum := TraceSummary{Spans: len(spans)}
	layerHists := map[string]*Histogram{}
	layers := map[string]*LayerStat{}
	for _, s := range spans {
		ls := layers[s.Layer]
		if ls == nil {
			ls = &LayerStat{Layer: s.Layer}
			layers[s.Layer] = ls
			layerHists[s.Layer] = &Histogram{}
		}
		ls.Spans++
		ls.WallTime += time.Duration(s.Wall)
		layerHists[s.Layer].Observe(s.Wall / int64(time.Microsecond))
		sum.WallTime += s.Wall
		if s.Err != "" {
			ls.Errors++
			sum.Faults = append(sum.Faults, FaultEvent{
				VirtualTime: s.Start, Layer: s.Layer, Name: s.Name, Err: s.Err,
			})
		}
		if !s.Start.IsZero() && (sum.VStart.IsZero() || s.Start.Before(sum.VStart)) {
			sum.VStart = s.Start
		}
		if s.End.After(sum.VEnd) {
			sum.VEnd = s.End
		}
	}
	for layer, ls := range layers {
		ls.WallHist = snapshotHistogram(layerHists[layer])
		sum.Layers = append(sum.Layers, *ls)
	}
	sort.Slice(sum.Layers, func(i, j int) bool { return sum.Layers[i].Layer < sum.Layers[j].Layer })
	sort.SliceStable(sum.Faults, func(i, j int) bool {
		return sum.Faults[i].VirtualTime.Before(sum.Faults[j].VirtualTime)
	})

	slow := make([]Span, len(spans))
	copy(slow, spans)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].Wall > slow[j].Wall })
	if len(slow) > topSlow {
		// Copy rather than reslice: a retained summary must not pin the
		// sorted copy of every span, and with it every span's attributes.
		slow = append([]Span(nil), slow[:topSlow]...)
	}
	sum.Slowest = slow
	return sum
}

// LayerSpanCount returns the summary's span count for a layer (0 when
// the layer never appeared).
func (s TraceSummary) LayerSpanCount(layer string) int {
	for _, ls := range s.Layers {
		if ls.Layer == layer {
			return ls.Spans
		}
	}
	return 0
}
