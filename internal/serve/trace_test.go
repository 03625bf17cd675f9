package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"crumbcruncher/internal/core"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/web"
)

// TestFrozenTraceMatchesLive pins the terminal-state trace freeze: the
// trace JSONL, its ?summary= view and the job's /debug/vars span summary
// are byte-identical before and after the freeze, and equal to what the
// live telemetry handle encodes directly.
func TestFrozenTraceMatchesLive(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := core.SmallConfig()
	cfg.Walks = 6
	tel := telemetry.New(nil, 1024)
	cfg.Telemetry = tel
	if _, err := core.ExecuteInWorld(context.Background(), cfg, web.BuildWorld(cfg.World)); err != nil {
		t.Fatal(err)
	}

	j := newJob("job-trace", JobSpec{Small: true}, cfg, 0)
	j.state, j.tel = StateRunning, tel
	srv.mu.Lock()
	srv.jobs[j.ID] = j
	srv.order = append(srv.order, j.ID)
	srv.mu.Unlock()

	// compact strips the indentation a response nests a value under.
	compact := func(raw []byte) []byte {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	jobSpans := func() []byte {
		var v struct {
			JobSpans map[string]json.RawMessage `json:"job_spans"`
		}
		if err := json.Unmarshal(fetchBody(t, ts.URL+"/debug/vars"), &v); err != nil {
			t.Fatal(err)
		}
		return compact(v.JobSpans[j.ID])
	}
	serve := func() [3][]byte {
		return [3][]byte{
			fetchBody(t, ts.URL+"/jobs/"+j.ID+"/trace"),
			compact(fetchBody(t, ts.URL+"/jobs/"+j.ID+"/trace?summary=1")),
			jobSpans(),
		}
	}

	var want [3][]byte
	var buf bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want[0] = buf.Bytes()
	spans := tel.Tracer().Spans()
	if len(spans) <= traceTopSlow {
		t.Fatalf("trace has %d spans, too few to exercise the summary", len(spans))
	}
	for k, top := range []int{traceTopSlow, debugTopSlow} {
		blob, err := json.Marshal(telemetry.Summarize(spans, top))
		if err != nil {
			t.Fatal(err)
		}
		want[k+1] = blob
	}

	live := serve()
	j.finish(StateDone, "", 1)
	if j.tel != nil || j.frozen == nil {
		t.Fatal("finish kept the live telemetry handle")
	}
	if cap(j.frozen.jsonl) != len(j.frozen.jsonl) {
		t.Errorf("frozen JSONL has cap %d for %d bytes", cap(j.frozen.jsonl), len(j.frozen.jsonl))
	}
	frozen := serve()
	for k, what := range []string{"trace JSONL", "trace summary", "/debug/vars job_spans"} {
		if !bytes.Equal(live[k], want[k]) {
			t.Errorf("live %s differs from the handle's own encoding:\nlive: %.300s\nwant: %.300s", what, live[k], want[k])
		}
		if !bytes.Equal(frozen[k], live[k]) {
			t.Errorf("%s differs after freeze:\nlive:   %.300s\nfrozen: %.300s", what, live[k], frozen[k])
		}
	}
}
