package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Runner executes one validated job spec. The default is
// exp.JobSpec.Run; tests substitute stubs to script slow, failing or
// progress-reporting jobs without simulating.
type Runner func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error)

// Config sizes the service. The zero value is usable: every field has
// a production default.
type Config struct {
	// Workers is the number of jobs simulated concurrently
	// (0 = GOMAXPROCS). Each job may additionally fan out its own
	// simulations per its spec's parallel field.
	Workers int

	// QueueDepth bounds how many accepted jobs may wait behind the
	// running ones (0 = 16). A full queue rejects submissions with
	// 429 + Retry-After instead of buffering without bound.
	QueueDepth int

	// JobTimeout caps one job's wall clock (0 = unbounded). Enforced
	// by the harness's per-job timeout; an expired job fails with
	// context.DeadlineExceeded.
	JobTimeout time.Duration

	// CacheSize bounds the result cache in entries (0 = 128,
	// negative disables caching).
	CacheSize int

	// SnapshotCacheSize bounds the warm-state snapshot cache in family
	// entries (0 = 32, negative disables snapshot reuse). Cached family
	// snapshots let jobs that share a configuration family skip warm-up
	// simulation; results are bit-identical either way.
	SnapshotCacheSize int

	// RetryAfter is the backpressure hint returned with 429
	// (0 = 2s).
	RetryAfter time.Duration

	// Runner overrides job execution (nil = exp.JobSpec.Run).
	Runner Runner

	// Store is the persistent result tier under the LRU cache (nil =
	// none). Completed results are written through to it, and an LRU
	// miss consults it before running the engine, so cache hits
	// survive restarts and are deduplicated across every process
	// sharing the store.
	Store ResultStore

	// Logger receives structured log records for submissions, job
	// lifecycle transitions and HTTP requests (nil = records are
	// discarded).
	Logger *slog.Logger

	// TraceCap bounds each job's span buffer in spans (0 = 512).
	TraceCap int

	// DisableTracing turns per-job span recording off; jobs then carry
	// no trace and GET /v1/jobs/{id}/trace answers 404.
	DisableTracing bool
}

// Server is the `overlaysim serve` process: a FrontEnd over the local
// executor, a bounded queue drained by a fixed pool of workers that
// run each job through internal/harness. Construct with New (workers
// start immediately), serve its Handler, and stop with Drain.
type Server struct {
	*FrontEnd

	// snapshots caches warm family state across jobs: two sweep jobs
	// over the same matrix dimension share one warm-up. Entries are
	// immutable, so concurrent jobs fork the same family safely.
	snapshots *exp.SnapshotCache

	admitMu sync.Mutex // orders Admit against Close
	closed  bool
	queue   chan *Job
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.SnapshotCacheSize == 0 {
		cfg.SnapshotCacheSize = 32
	}
	if cfg.Runner == nil {
		cfg.Runner = func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
			return spec.Run(ctx, pool)
		}
	}
	s := &Server{queue: make(chan *Job, cfg.QueueDepth)}
	if cfg.SnapshotCacheSize > 0 {
		s.snapshots = exp.NewSnapshotCache(cfg.SnapshotCacheSize)
	}
	s.FrontEnd = NewFrontEnd(Identity{Metrics: "server", RootSpan: "job", IDPrefix: "job-"}, cfg, s)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// Admit queues the job for the worker pool; a full queue refuses it
// with 429 instead of buffering without bound.
func (s *Server) Admit(j *Job) (int, error) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.closed {
		return http.StatusServiceUnavailable, errDraining
	}
	select {
	case s.queue <- j:
		return http.StatusAccepted, nil
	default:
		s.Count("queue_rejections", 1)
		return http.StatusTooManyRequests, fmt.Errorf("job queue is full (%d waiting)", cap(s.queue))
	}
}

// Close stops the worker pool: each worker exits once the queue is
// empty. Drain calls it when every job is terminal, so only a
// simulation a forced drain could not stop outlives it, abandoned to
// process exit.
func (s *Server) Close() {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
}

// Health reports queue occupancy; a local server can always take jobs.
func (s *Server) Health(doc map[string]any) bool {
	doc["queue_depth"] = len(s.queue)
	doc["queue_capacity"] = cap(s.queue)
	return true
}

// Routes adds nothing: a local server serves only the job API.
func (s *Server) Routes(*http.ServeMux) {}

// WriteMetrics renders the live queue and snapshot-cache gauges.
func (s *Server) WriteMetrics(_ context.Context, w io.Writer) {
	fmt.Fprintf(w, "# HELP overlaysim_server_queue_depth jobs waiting in the bounded queue\n"+
		"# TYPE overlaysim_server_queue_depth gauge\noverlaysim_server_queue_depth %d\n",
		len(s.queue))
	fmt.Fprintf(w, "# HELP overlaysim_server_queue_capacity bounded queue capacity\n"+
		"# TYPE overlaysim_server_queue_capacity gauge\noverlaysim_server_queue_capacity %d\n",
		cap(s.queue))
	if s.snapshots != nil {
		fmt.Fprintf(w, "# HELP overlaysim_server_snapshot_cache_hits warm-state family lookups served from cache\n"+
			"# TYPE overlaysim_server_snapshot_cache_hits counter\noverlaysim_server_snapshot_cache_hits %d\n",
			s.snapshots.Hits())
		fmt.Fprintf(w, "# HELP overlaysim_server_snapshot_cache_misses warm-state family lookups that built a snapshot\n"+
			"# TYPE overlaysim_server_snapshot_cache_misses counter\noverlaysim_server_snapshot_cache_misses %d\n",
			s.snapshots.Misses())
		fmt.Fprintf(w, "# HELP overlaysim_server_snapshot_cache_entries cached warm-state families\n"+
			"# TYPE overlaysim_server_snapshot_cache_entries gauge\noverlaysim_server_snapshot_cache_entries %d\n",
			s.snapshots.Len())
	}
}

// runJob executes one dequeued job through the harness: a single
// harness job wraps the runner, contributing panic→error conversion
// and the per-job timeout, while the experiment underneath fans its
// own simulations across the spec's parallelism.
func (s *Server) runJob(j *Job) {
	if !j.Start("") { // cancelled while waiting
		return
	}
	// The queue.wait span covers submit → dequeue, exactly the sample
	// the queue-wait histogram records.
	queueWait := j.started.Sub(j.submitted)
	if wait := j.StartSpan("queue.wait"); wait != nil {
		wait.Start = j.submitted
		wait.End()
	}
	s.Count("engine_runs", 1)
	s.observe("queue_wait_ms", uint64(queueWait.Milliseconds()))

	// The runner's context carries the job trace and a job-scoped
	// logger, so harness.job spans and experiment phase spans nest
	// under this "run" span and every log record downstream is tagged
	// with the job's identifiers.
	logger := j.logger()
	runSpan := j.StartSpan("run")
	ctx := obs.WithLogger(j.Context(), logger)
	if j.tracer != nil {
		ctx = obs.NewContext(ctx, j.tracer)
		ctx = obs.ContextWithSpan(ctx, runSpan)
	}
	logger.Info("job dequeued", "queue_wait_ms", queueWait.Milliseconds())

	pool := exp.Pool{
		Parallel:  1, // overridden by the spec's parallel field when set
		Snapshots: s.snapshots,
		OnProgress: func(done, total, failed int) {
			j.Progress(ProgressEvent{Done: done, Total: total, Failed: failed})
		},
	}
	results := harness.Run(ctx, harness.Options{Parallel: 1, Timeout: s.cfg.JobTimeout},
		[]harness.Job[*exp.JobOutput]{func(ctx context.Context) (*exp.JobOutput, error) {
			return s.cfg.Runner(ctx, j.spec, pool)
		}})
	out, err := results[0].Value, results[0].Err
	runSpan.End()

	var rendered []byte
	if err == nil && out != nil && out.Export != nil {
		encSpan := j.StartSpan("encode")
		var buf bytes.Buffer
		if werr := out.Export.WriteJSON(&buf); werr != nil {
			err = fmt.Errorf("rendering result: %w", werr)
		} else {
			rendered = buf.Bytes()
		}
		encSpan.End()
	} else if err == nil {
		err = errors.New("runner returned no result")
	}
	if err == nil && out.Stats != nil {
		s.statsMu.Lock()
		s.stats.Merge(out.Stats)
		s.statsMu.Unlock()
	}
	j.Finish(rendered, err)
}
