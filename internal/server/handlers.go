package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// maxSpecBytes bounds a job-spec request body; canonical specs are a
// few hundred bytes.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP routes (see docs/API.md): the job
// API, health, metrics, and whatever the executor adds.
func (fe *FrontEnd) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", fe.handleHealth(false))
	mux.HandleFunc("GET /readyz", fe.handleHealth(true))
	mux.HandleFunc("GET /metrics", fe.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", fe.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", fe.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", fe.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", fe.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", fe.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", fe.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", fe.handleCancel)
	fe.exec.Routes(mux)
	return fe.instrument(mux)
}

// statusWriter captures the response status for the request middleware.
// It forwards Flush so SSE streaming keeps working through the wrap.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestIDKey carries the request's ID through the handler context.
type requestIDKey struct{}

func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// instrument wraps every route: it assigns (or adopts) the request ID,
// echoes it as X-Request-ID, counts the request and its response
// status — every status, labelled by code, satisfying the error-path
// accounting — and logs one structured record per request.
func (fe *FrontEnd) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewSpanID().String()
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		fe.Count("http_requests", 1)
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		fe.statsMu.Lock()
		fe.statusCounts[sw.status]++
		fe.statsMu.Unlock()
		fe.cfg.Logger.Info("http request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"request_id", reqID, "dur_ms", time.Since(start).Milliseconds())
	})
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error    string   `json:"error"`
	Problems []string `json:"problems,omitempty"`
	JobID    string   `json:"job_id,omitempty"`
}

// WriteJSON answers with status and v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// WriteError answers with status and the error body every non-2xx
// response carries (validation problems included).
func WriteError(w http.ResponseWriter, status int, err error, jobID string) {
	body := errorBody{Error: err.Error(), JobID: jobID}
	var ve *exp.ValidationError
	if errors.As(err, &ve) {
		body.Problems = ve.Problems
	}
	WriteJSON(w, status, body)
}

// health renders the /healthz and /readyz document — drain state and
// job counts by phase, plus the executor's own fields — and reports
// readiness: not draining, and the executor can place jobs.
func (fe *FrontEnd) health() (map[string]any, bool) {
	fe.mu.Lock()
	doc := map[string]any{"status": "ok", "draining": fe.draining}
	if fe.draining {
		doc["status"] = "draining"
	}
	queued, running := 0, 0
	for _, j := range fe.order {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	doc["queued"], doc["running"] = queued, running
	draining := fe.draining
	fe.mu.Unlock()
	ready := fe.exec.Health(doc)
	return doc, ready && !draining
}

// handleHealth serves liveness (/healthz: always 200 while the process
// can answer) or, with readiness set, readiness (/readyz — "send me
// traffic": 503 once Drain begins, when new submissions are already
// refused, or while the executor cannot place jobs). Both carry the
// drain state and executor occupancy in the body.
func (fe *FrontEnd) handleHealth(readiness bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc, ready := fe.health()
		status := http.StatusOK
		if readiness && !ready {
			status = http.StatusServiceUnavailable
		}
		WriteJSON(w, status, doc)
	}
}

// handleSubmit accepts a JSON job spec. With ?wait=true the response
// is deferred until the job reaches a terminal state (200); otherwise
// an accepted job answers 202 immediately. Cache hits always answer
// 200 with the completed job document; the X-Overlaysim-Cache header
// names the tier that answered (`hit` = in-memory LRU, `hit-store` =
// persistent store, `miss` = the engine ran). A concurrent identical
// submission joins the job already in flight (single-flight — the
// engine runs once) and is marked with an X-Overlaysim-Singleflight
// header naming the shared job. A valid `traceparent` request header
// is adopted as the job trace's ID (the job's root span becomes a
// child of the client's span); the response echoes the job's own trace
// position in the same header.
func (fe *FrontEnd) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := exp.ParseJobSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err, "")
		return
	}
	remote, _ := obs.TraceparentFromHeader(r.Header)
	j, status, joined, err := fe.submit(spec, requestID(r), remote)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((fe.cfg.RetryAfter+time.Second-1)/time.Second)))
		}
		jobID := ""
		if j != nil {
			jobID = j.id
		}
		WriteError(w, status, err, jobID)
		return
	}
	obs.PropagateTraceparent(w.Header(), j.span.Context())
	switch {
	case j.cached && j.cacheSrc == CacheStore:
		w.Header().Set("X-Overlaysim-Cache", "hit-store")
	case j.cached:
		w.Header().Set("X-Overlaysim-Cache", "hit")
	default:
		w.Header().Set("X-Overlaysim-Cache", "miss")
	}
	if joined {
		w.Header().Set("X-Overlaysim-Singleflight", j.id)
	}
	if status == http.StatusAccepted && wantWait(r) {
		select {
		case <-j.done:
			status = http.StatusOK
		case <-r.Context().Done():
			return // client gave up; the job keeps running
		}
	}
	fe.mu.Lock()
	doc := j.doc(true)
	fe.mu.Unlock()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	WriteJSON(w, status, doc)
}

func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (fe *FrontEnd) handleList(w http.ResponseWriter, r *http.Request) {
	fe.mu.Lock()
	docs := make([]JobDoc, 0, len(fe.order))
	for _, j := range fe.order {
		docs = append(docs, j.doc(false))
	}
	fe.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]interface{}{"jobs": docs})
}

// lookup resolves the path's job id, answering 404 itself on a miss.
func (fe *FrontEnd) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	fe.mu.Lock()
	j, ok := fe.jobs[r.PathValue("id")]
	fe.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")), "")
	}
	return j, ok
}

func (fe *FrontEnd) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := fe.lookup(w, r)
	if !ok {
		return
	}
	fe.mu.Lock()
	doc := j.doc(true)
	fe.mu.Unlock()
	WriteJSON(w, http.StatusOK, doc)
}

// handleResult serves the raw export document — exactly the bytes the
// equivalent CLI invocation would have written with -json. 409 until
// the job is done.
func (fe *FrontEnd) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := fe.lookup(w, r)
	if !ok {
		return
	}
	fe.mu.Lock()
	state := j.state
	result := j.result
	fe.mu.Unlock()
	if state != StateDone {
		WriteError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; no result to serve", j.id, state), j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result) //nolint:errcheck
}

// TraceDoc is the wire form of a job's span trace: identifiers plus
// the recorded spans nested by parentage (see docs/OBSERVABILITY.md).
type TraceDoc struct {
	JobID     string          `json:"job_id"`
	TraceID   string          `json:"trace_id"`
	RequestID string          `json:"request_id,omitempty"`
	State     string          `json:"state"`
	Dropped   uint64          `json:"dropped_spans,omitempty"`
	Spans     []*obs.SpanNode `json:"spans"`
}

// handleTrace serves the job's span tree. Running jobs answer with the
// spans recorded so far (the still-open root appears once the job
// finishes); disabled tracing answers 404.
func (fe *FrontEnd) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := fe.lookup(w, r)
	if !ok {
		return
	}
	fe.mu.Lock()
	doc := TraceDoc{
		JobID:     j.id,
		TraceID:   j.traceID(),
		RequestID: j.requestID,
		State:     j.state,
	}
	// The terminal snapshot once the job is finished, the tracer's
	// current contents while it runs.
	spans := j.spans
	if j.tracer != nil && spans == nil {
		spans = j.tracer.Spans()
	}
	doc.Dropped = j.tracer.Dropped()
	fe.mu.Unlock()
	if j.tracer == nil {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("tracing is disabled; job %s carries no trace", j.id), j.id)
		return
	}
	doc.Spans = obs.BuildTree(spans)
	if doc.Spans == nil {
		doc.Spans = []*obs.SpanNode{}
	}
	WriteJSON(w, http.StatusOK, doc)
}

func (fe *FrontEnd) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := fe.cancelJob(r.PathValue("id"))
	if errors.Is(err, errNoSuchJob) {
		WriteError(w, http.StatusNotFound, err, "")
		return
	}
	if err != nil {
		WriteError(w, http.StatusConflict, err, j.id)
		return
	}
	fe.mu.Lock()
	doc := j.doc(false)
	fe.mu.Unlock()
	WriteJSON(w, http.StatusAccepted, doc)
}

// handleEvents streams the job's lifecycle as Server-Sent Events:
// `progress` events carry harness completion totals, and one terminal
// event — named after the final state — carries the full job document.
// Progress is coalescing (a slow client sees the latest state, not
// every tick); the terminal event is always delivered.
func (fe *FrontEnd) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := fe.lookup(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError,
			errors.New("streaming unsupported by this connection"), j.id)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush() // release the headers before the first event arrives

	sub := make(chan struct{}, 1)
	fe.mu.Lock()
	j.subs[sub] = struct{}{}
	fe.mu.Unlock()
	defer func() {
		fe.mu.Lock()
		delete(j.subs, sub)
		fe.mu.Unlock()
	}()

	// Progress payloads carry the job's identifiers so a stream
	// consumer can correlate events with log records and the trace.
	type progressPayload struct {
		ProgressEvent
		JobID     string `json:"job_id"`
		Worker    string `json:"worker,omitempty"`
		TraceID   string `json:"trace_id,omitempty"`
		RequestID string `json:"request_id,omitempty"`
	}

	var sent ProgressEvent
	sentAny := false
	for {
		fe.mu.Lock()
		prog, hasProg := j.progress, j.hasProg
		worker := j.worker
		terminal := j.terminal()
		var finalDoc JobDoc
		var state string
		if terminal {
			finalDoc = j.doc(true)
			state = j.state
		}
		fe.mu.Unlock()

		if hasProg && (!sentAny || prog != sent) {
			payload := progressPayload{
				ProgressEvent: prog, JobID: j.id, Worker: worker,
				TraceID: j.traceID(), RequestID: j.requestID,
			}
			if err := WriteSSE(w, "progress", payload); err != nil {
				return
			}
			sent, sentAny = prog, true
			fl.Flush()
		}
		if terminal {
			if WriteSSE(w, state, finalDoc) == nil {
				fl.Flush()
			}
			return
		}
		select {
		case <-sub:
		case <-r.Context().Done():
			return
		}
	}
}

// WriteSSE emits one event: `event: <name>` + single-line JSON data.
func WriteSSE(w io.Writer, event string, data interface{}) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

// handleMetrics renders the telemetry registry — front-end counters
// and histograms plus simulator stats merged in from completed jobs —
// in Prometheus text format, followed by the executor's own series.
func (fe *FrontEnd) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ns := "overlaysim_" + fe.id.Metrics
	fe.statsMu.Lock()
	if len(fe.statusCounts) > 0 {
		m := ns + "_http_responses_total"
		fmt.Fprintf(w, "# HELP %s HTTP responses by status code\n# TYPE %s counter\n", m, m)
		codes := make([]int, 0, len(fe.statusCounts))
		for code := range fe.statusCounts {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "%s{code=\"%s\"} %d\n",
				m, sim.PromEscapeLabel(strconv.Itoa(code)), fe.statusCounts[code])
		}
	}
	if len(fe.backendCounts) > 0 {
		m := ns + "_jobs_total"
		fmt.Fprintf(w, "# HELP %s jobs submitted by translation backend\n# TYPE %s counter\n", m, m)
		backends := make([]string, 0, len(fe.backendCounts))
		for b := range fe.backendCounts {
			backends = append(backends, b)
		}
		sort.Strings(backends)
		for _, b := range backends {
			fmt.Fprintf(w, "%s{backend=\"%s\"} %d\n",
				m, sim.PromEscapeLabel(b), fe.backendCounts[b])
		}
	}
	sim.WritePrometheus(w, "overlaysim_", fe.stats) //nolint:errcheck // client gone
	fe.statsMu.Unlock()
	fe.exec.WriteMetrics(r.Context(), w)
}
