package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// maxTerminalJobs bounds the terminal job records a front-end retains
// for GET /v1/jobs/{id}; older ones are evicted first and answer 404.
// Queued and running jobs are never evicted.
const maxTerminalJobs = 1024

// Identity is the wire-visible naming of one front-end process, fixed
// at construction. The serve and coordinator processes share every
// line of the job lifecycle and differ only in these names and in
// their Executor.
type Identity struct {
	Metrics  string // metric namespace: registry counters render as overlaysim_<Metrics>_*
	RootSpan string // name of every job's root span
	IDPrefix string // job IDs are IDPrefix plus a six-digit sequence number
}

// Executor runs the jobs a FrontEnd admits. The front-end owns
// everything a client sees — the job table, the LRU and store tiers,
// single-flight, SSE fan-out, cancellation, drain and the HTTP surface
// — and the executor reports back through the Job's Start, Progress
// and Finish methods.
type Executor interface {
	// Admit begins executing j, or refuses it with an HTTP status
	// (429, 502, 503, …) and the reason; a refused job is unregistered
	// as though it had never been submitted. Execution must observe
	// j.Context().
	Admit(j *Job) (status int, err error)

	// Health adds the executor's fields to the /healthz and /readyz
	// document and reports whether it can place jobs now.
	Health(doc map[string]any) (ready bool)

	// WriteMetrics appends the executor's series to GET /metrics.
	WriteMetrics(ctx context.Context, w io.Writer)

	// Routes registers the executor's extra endpoints.
	Routes(mux *http.ServeMux)

	// Close releases the executor. Drain calls it once every job is
	// terminal (or the grace period expired).
	Close()
}

// FrontEnd is the job service one HTTP listener exposes: admission
// (LRU → single-flight → persistent store → executor), the job table,
// SSE fan-out, cancellation, drain, and every /v1/jobs*, /healthz,
// /readyz and /metrics route. Construct with NewFrontEnd, serve its
// Handler, and stop with Drain.
type FrontEnd struct {
	id   Identity
	cfg  Config
	exec Executor

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// statsMu guards the telemetry registry; sim.Stats itself is not
	// concurrency-safe. statusCounts and backendCounts ride under the
	// same lock: the registry has no labelled counters, so HTTP response
	// statuses and per-backend job tallies are kept aside and rendered
	// as {code="NNN"}- and {backend="name"}-labelled series.
	statsMu       sync.Mutex
	stats         *sim.Stats
	statusCounts  map[int]uint64
	backendCounts map[string]uint64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job          // submission order, for listing and retention
	inflight map[string]*Job // canonical key → queued/running job
	cache    *resultCache
	draining bool
	seq      int
}

// NewFrontEnd builds a front-end over exec. It reads the front-end
// fields of cfg — CacheSize, RetryAfter, Store, Logger, TraceCap and
// DisableTracing — and leaves the rest to the executor.
func NewFrontEnd(id Identity, cfg Config, exec Executor) *FrontEnd {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = 512
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &FrontEnd{
		id:            id,
		cfg:           cfg,
		exec:          exec,
		baseCtx:       ctx,
		baseCancel:    cancel,
		stats:         &sim.Stats{},
		statusCounts:  make(map[int]uint64),
		backendCounts: make(map[string]uint64),
		jobs:          make(map[string]*Job),
		inflight:      make(map[string]*Job),
		cache:         newResultCache(cfg.CacheSize),
	}
}

// Count bumps the registry counter name in the front-end's metric
// namespace (Count("jobs_forwarded", 1) on a "coord" front-end renders
// as overlaysim_coord_jobs_forwarded).
func (fe *FrontEnd) Count(name string, n uint64) {
	fe.statsMu.Lock()
	fe.stats.Add(fe.id.Metrics+"."+name, n)
	fe.statsMu.Unlock()
}

// observe records one histogram sample in the metric namespace.
func (fe *FrontEnd) observe(name string, v uint64) {
	fe.statsMu.Lock()
	fe.stats.Histogram(fe.id.Metrics + "." + name).Observe(v)
	fe.statsMu.Unlock()
}

var errDraining = errors.New("server is draining; not accepting jobs")

// submit registers a new job or replies out of a result tier.
// requestID tags the job with the submitting request; remote, when
// valid, is the client's traceparent, adopted as the job trace's ID
// and root parent. It returns the job (possibly an already-terminal
// cache-backed record, or — joined=true — the in-flight job an
// identical concurrent submission collapsed onto), a suggested HTTP
// status, and an error for rejections (draining, or refused by the
// executor).
func (fe *FrontEnd) submit(spec exp.JobSpec, requestID string, remote obs.SpanContext) (j *Job, status int, joined bool, err error) {
	key := spec.Key()
	fe.Count("jobs_submitted", 1)
	fe.statsMu.Lock()
	fe.backendCounts[specBackendLabel(spec)]++
	fe.statsMu.Unlock()

	fe.mu.Lock()
	if fe.draining {
		fe.mu.Unlock()
		return nil, http.StatusServiceUnavailable, false, errDraining
	}
	if result, ok := fe.cache.get(key); ok {
		fe.Count("cache_hits", 1)
		j = fe.cachedJobLocked(spec, key, requestID, remote, result, CacheMemory)
		fe.mu.Unlock()
		return j, http.StatusOK, false, nil
	}
	fe.Count("cache_misses", 1)
	if dup, ok := fe.inflight[key]; ok {
		// Single-flight: a concurrent identical submission joins the
		// job already in flight instead of being rejected — the engine
		// runs once and every submitter polls or waits on the same
		// record.
		fe.Count("singleflight_hits", 1)
		fe.cfg.Logger.Info("job joined in-flight duplicate",
			"job_id", dup.id, "trace_id", dup.traceID(), "request_id", requestID,
			"experiment", spec.Experiment)
		fe.mu.Unlock()
		return dup, http.StatusAccepted, true, nil
	}
	if fe.cfg.Store != nil {
		// The persistent tier sits under the LRU: a hit promotes the
		// entry into memory and answers like any cache hit; a store
		// error (corrupt entry, unreadable mount) is a miss — the job
		// re-runs and the write-through repairs the entry. The read is
		// a small local file; holding the registration lock across it
		// keeps the miss→inflight transition atomic.
		switch result, ok, serr := fe.cfg.Store.Get(key); {
		case serr != nil:
			fe.Count("store_errors", 1)
			fe.cfg.Logger.Warn("result store read failed",
				"key", key, "request_id", requestID, "err", serr.Error())
		case ok:
			fe.Count("store_hits", 1)
			fe.cache.put(key, result)
			j = fe.cachedJobLocked(spec, key, requestID, remote, result, CacheStore)
			fe.mu.Unlock()
			return j, http.StatusOK, false, nil
		}
	}
	j = fe.newJobLocked(spec, key, requestID, remote)
	j.span.SetAttr("cache", "miss")
	fe.inflight[key] = j
	fe.mu.Unlock()

	// The executor decides outside the registration lock: a forwarding
	// executor answers only after a network round trip. Its refusal
	// rolls the registration back; identical submissions that joined
	// meanwhile see the job fail with the refusal's reason.
	if status, err := fe.exec.Admit(j); err != nil {
		fe.mu.Lock()
		if !j.terminal() { // a job cancelled while being admitted stays cancelled
			delete(fe.jobs, j.id)
			fe.order = slices.DeleteFunc(fe.order, func(o *Job) bool { return o == j })
			fe.settleLocked(j, StateFailed, err.Error())
		}
		fe.mu.Unlock()
		return nil, status, false, err
	}
	j.logger().Info("job accepted", "experiment", spec.Experiment)
	return j, http.StatusAccepted, false, nil
}

// cachedJobLocked registers an already-terminal job backed by a cached
// result. src names the tier that answered (CacheMemory or CacheStore).
// Caller holds the FrontEnd mutex.
func (fe *FrontEnd) cachedJobLocked(spec exp.JobSpec, key, requestID string, remote obs.SpanContext, result []byte, src string) *Job {
	j := fe.newJobLocked(spec, key, requestID, remote)
	if src == CacheMemory {
		j.span.SetAttr("cache", "hit")
	} else {
		j.span.SetAttr("cache", "hit-"+src)
	}
	j.cached = true
	j.cacheSrc = src
	j.started = j.submitted
	j.result = result
	fe.settleLocked(j, StateDone, "")
	fe.cfg.Logger.Info("job served from cache",
		"job_id", j.id, "trace_id", j.traceID(), "request_id", requestID,
		"experiment", spec.Experiment, "cache_source", src)
	return j
}

// specBackendLabel is the {backend="..."} label value a submitted spec
// tallies under: the normalized backend name, "all" for a compare run
// over every backend, or "none" for experiments with no backend knob.
func specBackendLabel(spec exp.JobSpec) string {
	if b := spec.Normalized().Backend; b != "" {
		return b
	}
	if spec.Experiment == "compare" {
		return "all"
	}
	return "none"
}

// newJobLocked allocates and registers a queued job record with its
// tracer and root span. With tracing disabled the job simply carries
// no tracer and every span operation no-ops. Caller holds the
// FrontEnd mutex.
func (fe *FrontEnd) newJobLocked(spec exp.JobSpec, key, requestID string, remote obs.SpanContext) *Job {
	fe.seq++
	j := &Job{
		fe:        fe,
		id:        fmt.Sprintf("%s%06d", fe.id.IDPrefix, fe.seq),
		spec:      spec,
		key:       key,
		requestID: requestID,
		state:     StateQueued,
		submitted: time.Now(),
		subs:      make(map[chan struct{}]struct{}),
		done:      make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(fe.baseCtx)
	if !fe.cfg.DisableTracing {
		j.tracer = obs.NewTracer(remote.TraceID, fe.cfg.TraceCap)
		j.span = j.tracer.StartSpan(remote, fe.id.RootSpan)
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("experiment", spec.Experiment)
		if b := spec.Normalized().Backend; b != "" {
			j.span.SetAttr("backend", b)
		}
		if requestID != "" {
			j.span.SetAttr("request_id", requestID)
		}
	}
	fe.jobs[j.id] = j
	fe.order = append(fe.order, j)
	return j
}

// settleLocked moves j to a terminal state exactly once and reports
// whether it did: the job leaves the single-flight table, its trace is
// snapshotted, its context released, and every waiter and subscriber
// woken. Caller holds the FrontEnd mutex.
func (fe *FrontEnd) settleLocked(j *Job, state, errMsg string) bool {
	if j.terminal() {
		return false
	}
	if fe.inflight[j.key] == j {
		delete(fe.inflight, j.key)
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.endTrace()
	j.cancel()
	close(j.done)
	j.notifySubs()
	fe.retireLocked()
	return true
}

// retireLocked evicts the oldest terminal records beyond
// maxTerminalJobs, so a long-running process holds a bounded job table
// no matter how many requests it serves. Caller holds the FrontEnd
// mutex.
func (fe *FrontEnd) retireLocked() {
	excess := -maxTerminalJobs
	for _, j := range fe.order {
		if j.terminal() {
			excess++
		}
	}
	if excess <= 0 {
		return
	}
	fe.order = slices.DeleteFunc(fe.order, func(j *Job) bool {
		if excess == 0 || !j.terminal() {
			return false
		}
		delete(fe.jobs, j.id)
		excess--
		return true
	})
}

// recordEnd counts and logs one terminal transition (a run that
// finished, or a job cancelled before it started). Only the goroutine
// that settled j calls it, so j's terminal fields are stable.
func (fe *FrontEnd) recordEnd(j *Job) {
	var wallMS int64
	if !j.started.IsZero() {
		wallMS = j.finished.Sub(j.started).Milliseconds()
		fe.observe("job_wall_ms", uint64(wallMS))
	}
	switch j.state {
	case StateDone:
		fe.Count("jobs_completed", 1)
	case StateCancelled:
		fe.Count("jobs_cancelled", 1)
	default:
		fe.Count("jobs_failed", 1)
		j.logger().Error("job failed", "wall_ms", wallMS, "err", j.errMsg)
		return
	}
	j.logger().Info("job finished", "state", j.state, "wall_ms", wallMS)
}

// cancelJob cancels a queued or running job: its context is cancelled
// (the executor observes that), and a job that has not started yet is
// cancelled on the spot. It returns the job and nil on success, or an
// error describing why nothing was cancelled.
func (fe *FrontEnd) cancelJob(id string) (*Job, error) {
	fe.mu.Lock()
	j, ok := fe.jobs[id]
	if !ok {
		fe.mu.Unlock()
		return nil, errNoSuchJob
	}
	if j.terminal() {
		fe.mu.Unlock()
		return j, fmt.Errorf("job %s is already %s", id, j.state)
	}
	j.cancel()
	settled := j.state == StateQueued && fe.settleLocked(j, StateCancelled, context.Canceled.Error())
	fe.mu.Unlock()
	if settled {
		fe.recordEnd(j)
	}
	return j, nil
}

var errNoSuchJob = errors.New("no such job")

// Drain stops intake and shuts the service down: new submissions get
// 503, queued and running jobs are given until ctx expires to finish,
// and anything still in flight afterwards is cancelled. Drain returns
// nil on a clean drain and an error when the grace period expired (an
// in-flight simulation does not observe cancellation mid-engine-run,
// so a forced drain may abandon its goroutine to process exit).
func (fe *FrontEnd) Drain(ctx context.Context) error {
	fe.mu.Lock()
	fe.draining = true // no job registers from here on
	fe.mu.Unlock()

	var err error
	if !awaitJobs(ctx, fe.pendingJobs()) {
		// Grace expired: cancel everything still alive and give the
		// executor a moment to notice before abandoning it.
		pending := fe.pendingJobs()
		for _, j := range pending {
			fe.cancelJob(j.id) //nolint:errcheck // a job that just finished needs no cancel
		}
		err = fmt.Errorf("drain grace period expired; cancelled %d in-flight jobs", len(pending))
		wait, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		awaitJobs(wait, pending)
		cancel()
	}
	fe.exec.Close()
	fe.baseCancel()
	return err
}

// pendingJobs snapshots the queued and running jobs.
func (fe *FrontEnd) pendingJobs() []*Job {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	var pending []*Job
	for _, j := range fe.order {
		if !j.terminal() {
			pending = append(pending, j)
		}
	}
	return pending
}

// awaitJobs blocks until every job in jobs is terminal (true) or ctx
// expires (false).
func awaitJobs(ctx context.Context, jobs []*Job) bool {
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return false
		}
	}
	return true
}
