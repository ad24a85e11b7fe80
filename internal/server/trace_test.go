package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// spanningRunner opens a phase span through the job context, proving
// the runner sees the server's tracer and its spans land in the trace.
func spanningRunner(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
	_, sp := obs.StartSpan(ctx, "fork.warmup")
	sp.End()
	return stubOutput(spec), nil
}

// getTrace fetches and decodes a job's trace document.
func getTrace(t *testing.T, ts string, jobID string) (int, TraceDoc) {
	t.Helper()
	code, body := getBody(t, ts+"/v1/jobs/"+jobID+"/trace")
	var doc TraceDoc
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding trace doc %q: %v", body, err)
		}
	}
	return code, doc
}

// findNode walks a span tree for the first node with the given name.
func findNode(nodes []*obs.SpanNode, name string) *obs.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if hit := findNode(n.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestTraceparentPropagation submits with a client traceparent and
// checks the job adopts the trace ID, the response echoes the job's
// position in the trace, and the trace endpoint returns the span tree
// nested job → {queue.wait, run → harness.job → fork.warmup, encode}.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Runner: spanningRunner})

	client := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs?wait=true",
		strings.NewReader(sweepSpec(296)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", client.Traceparent())
	req.Header.Set("X-Request-ID", "req-abc123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc123" {
		t.Errorf("X-Request-ID echoed %q, want req-abc123", got)
	}
	echoed, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || echoed.TraceID != client.TraceID {
		t.Errorf("response traceparent %q does not keep the client's trace ID",
			resp.Header.Get("traceparent"))
	}
	if echoed.SpanID == client.SpanID {
		t.Errorf("response traceparent reuses the client's span ID")
	}

	var doc JobDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("job doc: %v", err)
	}
	if doc.TraceID != client.TraceID.String() {
		t.Errorf("job doc trace_id = %q, want %s", doc.TraceID, client.TraceID)
	}
	if doc.RequestID != "req-abc123" {
		t.Errorf("job doc request_id = %q", doc.RequestID)
	}
	summaries := map[string]bool{}
	for _, sp := range doc.Spans {
		summaries[sp.Name] = true
	}
	for _, want := range []string{"job", "queue.wait", "run", "encode", "harness.job", "fork.warmup"} {
		if !summaries[want] {
			t.Errorf("job doc span summaries lack %q: %v", want, summaries)
		}
	}

	code, trace := getTrace(t, ts.URL, doc.ID)
	if code != http.StatusOK {
		t.Fatalf("trace endpoint: status %d", code)
	}
	if trace.TraceID != client.TraceID.String() || trace.State != StateDone {
		t.Fatalf("trace doc = %+v", trace)
	}
	if len(trace.Spans) != 1 || trace.Spans[0].Name != "job" {
		t.Fatalf("trace roots = %+v, want single job root", trace.Spans)
	}
	root := trace.Spans[0]
	if root.ParentID != client.SpanID.String() {
		t.Errorf("job root parent = %q, want the client span %s", root.ParentID, client.SpanID)
	}
	if findNode(root.Children, "queue.wait") == nil {
		t.Errorf("no queue.wait under job root")
	}
	run := findNode(root.Children, "run")
	if run == nil {
		t.Fatalf("no run span under job root")
	}
	hj := findNode(run.Children, "harness.job")
	if hj == nil {
		t.Fatalf("no harness.job under run: %+v", run.Children)
	}
	if findNode(hj.Children, "fork.warmup") == nil {
		t.Errorf("runner's phase span did not nest under harness.job: %+v", hj.Children)
	}
}

// syncWriter serialises writes so test goroutines and server workers
// can share one log buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestLogRecordsCarryTraceIDs proves structured log records and the
// trace endpoint agree on the job's identifiers.
func TestLogRecordsCarryTraceIDs(t *testing.T) {
	var logs syncWriter
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Runner:  (&countingRunner{}).run,
		Logger:  obs.NewLogger(&logs, "json", slog.LevelInfo),
	})
	status, doc, _ := postSpec(t, ts, sweepSpec(304), true)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d", status)
	}
	if doc.TraceID == "" {
		t.Fatalf("job doc has no trace_id")
	}

	type record struct {
		Msg       string `json:"msg"`
		JobID     string `json:"job_id"`
		TraceID   string `json:"trace_id"`
		RequestID string `json:"request_id"`
		Status    int    `json:"status"`
	}
	var accepted, finished, httpReqs int
	sc := bufio.NewScanner(strings.NewReader(logs.String()))
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", sc.Text(), err)
		}
		switch rec.Msg {
		case "job accepted":
			accepted++
			if rec.TraceID != doc.TraceID || rec.JobID != doc.ID {
				t.Errorf("accepted record ids = %+v, want trace %s job %s",
					rec, doc.TraceID, doc.ID)
			}
			if rec.RequestID == "" {
				t.Errorf("accepted record lacks request_id")
			}
		case "job finished":
			finished++
			if rec.TraceID != doc.TraceID {
				t.Errorf("finished record trace_id = %q, want %s", rec.TraceID, doc.TraceID)
			}
		case "http request":
			httpReqs++
			if rec.RequestID == "" || rec.Status == 0 {
				t.Errorf("http record incomplete: %+v", rec)
			}
		}
	}
	if accepted != 1 || finished != 1 || httpReqs == 0 {
		t.Fatalf("log records: accepted=%d finished=%d http=%d", accepted, finished, httpReqs)
	}
}

// TestStatusLabelledResponseCounter drives a 404 and finds it in the
// metrics endpoint as a {code="404"}-labelled counter.
func TestStatusLabelledResponseCounter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Runner: (&countingRunner{}).run})
	if code, _ := getBody(t, ts.URL+"/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", code)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	samples, types, err := sim.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("metrics do not parse: %v\n%s", err, body)
	}
	if types["overlaysim_server_http_responses_total"] != "counter" {
		t.Errorf("responses_total TYPE = %q", types["overlaysim_server_http_responses_total"])
	}
	found := false
	for _, smp := range samples {
		if smp.Name == "overlaysim_server_http_responses_total" &&
			smp.Label == "code" && smp.LabelVal == "404" {
			found = true
			if smp.Value < 1 {
				t.Errorf("404 counter = %v, want >= 1", smp.Value)
			}
		}
	}
	if !found {
		t.Fatalf("no code=\"404\" sample in metrics:\n%s", body)
	}
}

// TestSSEProgressCarriesIDs checks the progress payload is tagged with
// the job's identifiers.
func TestSSEProgressCarriesIDs(t *testing.T) {
	stage := make(chan struct{})
	runner := func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		pool.OnProgress(1, 2, 0)
		select {
		case <-stage:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubOutput(spec), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})
	defer close(stage)

	_, doc, _ := postSpec(t, ts, sweepSpec(312), false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	event, data := readSSEEvent(t, bufio.NewReader(resp.Body))
	if event != "progress" {
		t.Fatalf("first event = %q, want progress", event)
	}
	var p struct {
		Done      int    `json:"done"`
		JobID     string `json:"job_id"`
		TraceID   string `json:"trace_id"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal([]byte(data), &p); err != nil {
		t.Fatalf("progress payload %q: %v", data, err)
	}
	if p.Done != 1 || p.JobID != doc.ID || p.TraceID != doc.TraceID || p.RequestID == "" {
		t.Fatalf("progress payload = %+v, want ids of job %s trace %s", p, doc.ID, doc.TraceID)
	}
}

// TestTracingDisabled proves DisableTracing yields jobs without traces
// (404 on the trace endpoint) while everything else keeps working.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, Runner: (&countingRunner{}).run, DisableTracing: true,
	})
	status, doc, hdr := postSpec(t, ts, sweepSpec(320), true)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d", status)
	}
	if doc.TraceID != "" || len(doc.Spans) != 0 {
		t.Errorf("disabled tracing still produced trace_id %q / %d spans",
			doc.TraceID, len(doc.Spans))
	}
	if hdr.Get("traceparent") != "" {
		t.Errorf("disabled tracing still echoed traceparent %q", hdr.Get("traceparent"))
	}
	if code, _ := getTrace(t, ts.URL, doc.ID); code != http.StatusNotFound {
		t.Errorf("trace endpoint with tracing disabled: status %d, want 404", code)
	}
}

// TestCachedJobTrace proves a cache hit carries its own short trace.
func TestCachedJobTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Runner: (&countingRunner{}).run})
	if status, _, _ := postSpec(t, ts, sweepSpec(328), true); status != http.StatusOK {
		t.Fatalf("first submit: status %d", status)
	}
	status, doc, _ := postSpec(t, ts, sweepSpec(328), false)
	if status != http.StatusOK || !doc.Cached {
		t.Fatalf("second submit: status %d cached %v, want cache hit", status, doc.Cached)
	}
	code, trace := getTrace(t, ts.URL, doc.ID)
	if code != http.StatusOK || len(trace.Spans) != 1 || trace.Spans[0].Name != "job" {
		t.Fatalf("cached job trace = %d %+v, want a lone job root", code, trace.Spans)
	}
	if trace.Spans[0].Attrs["cache"] != "hit" {
		t.Errorf("cached root attrs = %v, want cache=hit", trace.Spans[0].Attrs)
	}
}
