package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

// Job states. A job moves queued → running → one terminal state;
// cancellation can short-circuit from either non-terminal state.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Cache sources: which tier answered a cached submission.
const (
	CacheMemory = "memory" // the in-process LRU
	CacheStore  = "store"  // the persistent result store
)

// ProgressEvent is one structured progress update: completed sub-jobs
// of the experiment's harness sweep (a fork suite counts benchmarks, a
// sweep counts points, …).
type ProgressEvent struct {
	Done   int `json:"done"`
	Total  int `json:"total"`
	Failed int `json:"failed"`
}

// Job is the front-end's record of one submission, and the handle an
// Executor runs it through: Start, Progress and Finish report back,
// and Context is cancelled when the job must stop. All fields after
// the immutable header are guarded by the FrontEnd's mutex.
type Job struct {
	fe        *FrontEnd
	id        string
	spec      exp.JobSpec
	key       string
	requestID string
	ctx       context.Context
	cancel    context.CancelFunc // cancels ctx: DELETE, forced drain, terminal

	state     string
	cached    bool
	cacheSrc  string // CacheMemory or CacheStore, "" when not cached
	worker    string // where the executor placed the job, "" when local
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  ProgressEvent
	hasProg   bool
	result    []byte // rendered sim.Export JSON, exactly as the CLI's -json writes it

	// tracer records the job's spans; span is the root span. spans
	// snapshots the trace at the terminal transition (nil until then).
	// Both nil when tracing is disabled — every obs operation on them
	// no-ops.
	tracer *obs.Tracer
	span   *obs.Span
	spans  []obs.Span

	subs map[chan struct{}]struct{} // SSE subscribers (signal channels, cap 1)
	done chan struct{}              // closed exactly once on terminal transition
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the validated, canonical job spec.
func (j *Job) Spec() exp.JobSpec { return j.spec }

// Key returns the spec's canonical digest (exp.JobSpec.Key).
func (j *Job) Key() string { return j.key }

// RequestID returns the ID of the request that submitted the job.
func (j *Job) RequestID() string { return j.requestID }

// Context is cancelled when the job must stop: on DELETE, on a forced
// drain, and once the job is terminal. Executors run the job under it.
func (j *Job) Context() context.Context { return j.ctx }

// logger returns the front-end's logger tagged with the job's
// identifiers.
func (j *Job) logger() *slog.Logger {
	return j.fe.cfg.Logger.With(
		"job_id", j.id, "trace_id", j.traceID(), "request_id", j.requestID)
}

// StartSpan opens a child of the job's root span (nil, and free, when
// tracing is disabled). The caller ends it.
func (j *Job) StartSpan(name string) *obs.Span {
	return j.tracer.StartSpan(j.span.Context(), name)
}

// Start marks the job running — on worker, when the executor placed it
// elsewhere ("" for local execution). A re-placement only updates the
// worker. It reports false when the job is already terminal (cancelled
// before it started), in which case the executor must drop it.
func (j *Job) Start(worker string) bool {
	j.fe.mu.Lock()
	defer j.fe.mu.Unlock()
	if j.terminal() {
		return false
	}
	j.worker = worker
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
	}
	j.notifySubs()
	return true
}

// Progress publishes one progress update to the job's subscribers.
func (j *Job) Progress(p ProgressEvent) {
	j.fe.mu.Lock()
	defer j.fe.mu.Unlock()
	if j.terminal() {
		return
	}
	j.progress, j.hasProg = p, true
	j.notifySubs()
}

// Finish moves the job to its terminal state: done with result when
// err is nil, cancelled when err is a context cancellation, failed
// otherwise. A result is written through to the persistent store and
// the LRU before it is published. Finishing an already-terminal job is
// a no-op.
func (j *Job) Finish(result []byte, err error) {
	fe := j.fe
	// Write the result through to the persistent tier before publishing
	// it, so a process that restarts right after answering can still
	// serve the same bytes from the store. A failed write is logged and
	// counted, not fatal — the LRU still has the entry.
	if err == nil && fe.cfg.Store != nil {
		if serr := fe.cfg.Store.Put(j.key, result); serr != nil {
			fe.Count("store_errors", 1)
			j.logger().Warn("result store write failed", "key", j.key, "err", serr.Error())
		} else {
			fe.Count("store_puts", 1)
		}
	}
	state, msg := StateDone, ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, msg = StateCancelled, err.Error()
	default:
		state, msg = StateFailed, err.Error()
	}
	fe.mu.Lock()
	if err == nil && !j.terminal() {
		j.result = result
		fe.cache.put(j.key, result)
	}
	settled := fe.settleLocked(j, state, msg)
	fe.mu.Unlock()
	if settled {
		fe.recordEnd(j)
	}
}

// traceID renders the job's trace ID, "" when tracing is disabled.
func (j *Job) traceID() string {
	if j.tracer == nil {
		return ""
	}
	return j.tracer.TraceID().String()
}

// endTrace closes the root span and snapshots the trace; it runs
// exactly once, at the job's terminal transition. Caller holds the
// FrontEnd mutex.
func (j *Job) endTrace() {
	if j.tracer == nil {
		return
	}
	j.span.End()
	j.spans = j.tracer.Spans()
}

// terminal reports whether the job reached a final state.
func (j *Job) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}

// SpanSummary is one completed span in a job document: name plus
// timing, offsets in microseconds from the trace's first span.
type SpanSummary struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// JobDoc is the wire representation of a job (see docs/API.md).
type JobDoc struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	CacheSource string          `json:"cache_source,omitempty"` // memory | store, cached jobs only
	Spec        exp.JobSpec     `json:"spec"`
	Key         string          `json:"key"`
	Worker      string          `json:"worker,omitempty"` // coordinator-routed jobs: the shard's URL
	Error       string          `json:"error,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	RequestID   string          `json:"request_id,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Progress    *ProgressEvent  `json:"progress,omitempty"`
	Spans       []SpanSummary   `json:"spans,omitempty"` // terminal jobs only
	Result      json.RawMessage `json:"result,omitempty"`
}

// doc renders the job for the wire. withResult controls whether the
// (potentially large) result document rides along; listings omit it.
// Caller holds the FrontEnd mutex.
func (j *Job) doc(withResult bool) JobDoc {
	d := JobDoc{
		ID:          j.id,
		State:       j.state,
		Cached:      j.cached,
		CacheSource: j.cacheSrc,
		Spec:        j.spec,
		Key:         j.key,
		Worker:      j.worker,
		Error:       j.errMsg,
		TraceID:     j.traceID(),
		RequestID:   j.requestID,
		SubmittedAt: j.submitted,
	}
	if len(j.spans) > 0 {
		base := obs.TraceStart(j.spans)
		d.Spans = make([]SpanSummary, len(j.spans))
		for i, sp := range j.spans {
			d.Spans[i] = SpanSummary{
				Name:    sp.Name,
				StartUS: sp.Start.Sub(base).Microseconds(),
				DurUS:   sp.Dur.Microseconds(),
			}
		}
	}
	if !j.started.IsZero() {
		t := j.started
		d.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		d.FinishedAt = &t
	}
	if j.hasProg {
		p := j.progress
		d.Progress = &p
	}
	if withResult && j.result != nil {
		d.Result = json.RawMessage(j.result)
	}
	return d
}

// notifySubs pokes every subscriber without blocking: each channel has
// capacity one, so a slow reader coalesces updates instead of stalling
// the executor. Caller holds the FrontEnd mutex.
func (j *Job) notifySubs() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
