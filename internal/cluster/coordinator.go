package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Config sizes a Coordinator. The zero value is usable except for
// Workers/registration: a coordinator with no workers answers 503
// until one registers.
type Config struct {
	// Workers seeds the shard set with static worker base URLs
	// (e.g. http://127.0.0.1:8391). Workers may also self-register at
	// runtime via POST /v1/workers — the two sources merge.
	Workers []string

	// Store is the persistent result tier (nil = none): every
	// completed result is written through to it, and a submission
	// whose digest is already stored answers without touching a
	// worker. Point workers at the same store to dedupe fleet-wide.
	Store server.ResultStore

	// HealthInterval is the /readyz probe period (0 = 2s).
	HealthInterval time.Duration

	// RetryAfter is the backpressure hint returned with 429 when
	// every reachable shard is saturated (0 = 2s).
	RetryAfter time.Duration

	// ForwardAttempts bounds how many shards one job may be routed to
	// before failing — the initial forward plus re-routes after a
	// worker dies mid-job (0 = 3).
	ForwardAttempts int

	// ForwardTimeout caps one forwarding POST or result fetch
	// (0 = 30s). The SSE watch itself is unbounded — jobs run as long
	// as they run.
	ForwardTimeout time.Duration

	// Logger receives structured records for routing decisions, health
	// transitions and HTTP requests (nil = discarded).
	Logger *slog.Logger

	// TraceCap bounds each job's span buffer (0 = 512);
	// DisableTracing turns the coordinator's spans off entirely.
	TraceCap       int
	DisableTracing bool

	// Client overrides the HTTP client used to talk to workers (nil =
	// a default with no global timeout; per-call contexts bound the
	// non-streaming requests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 3
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// WorkerDoc is one shard as the coordinator sees it, and its wire form
// in GET /v1/workers.
type WorkerDoc struct {
	URL        string    `json:"url"`
	Healthy    bool      `json:"healthy"`
	Registered bool      `json:"registered"` // arrived via POST /v1/workers (vs static config)
	LastSeen   time.Time `json:"last_seen,omitempty"`
	Jobs       uint64    `json:"jobs"` // jobs this coordinator routed here
}

// Coordinator is the `overlaysim coordinator` process: a
// server.FrontEnd over the forwarding executor, which routes each job
// to its rendezvous shard and follows it there. Construct with New
// (the health loop starts immediately), serve its Handler, stop with
// Drain.
type Coordinator struct {
	*server.FrontEnd
	cfg    Config
	client *http.Client

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	workers map[string]*WorkerDoc

	wg sync.WaitGroup // health loop and job watchers
}

// New builds the coordinator and starts its health-check loop. Its
// wire identity — overlaysim_coord_* metrics, coordinator.job root
// spans, cjob- IDs — is fixed here, and it keeps no in-memory result
// LRU: repeats are answered by the persistent store or the worker.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		cfg:        cfg,
		client:     cfg.Client,
		baseCtx:    ctx,
		baseCancel: cancel,
		workers:    make(map[string]*WorkerDoc),
	}
	co.FrontEnd = server.NewFrontEnd(
		server.Identity{Metrics: "coord", RootSpan: "coordinator.job", IDPrefix: "cjob-"},
		server.Config{
			CacheSize:      -1,
			RetryAfter:     cfg.RetryAfter,
			Store:          cfg.Store,
			Logger:         cfg.Logger,
			TraceCap:       cfg.TraceCap,
			DisableTracing: cfg.DisableTracing,
		}, co)
	for _, u := range cfg.Workers {
		// Statically configured workers start healthy and are corrected
		// by the first probe; jobs submitted before it complete their
		// own liveness discovery by failing over.
		co.workers[u] = &WorkerDoc{URL: u, Healthy: true}
	}
	co.wg.Add(1)
	go co.healthLoop()
	return co
}

// RegisterWorker adds (or refreshes) a shard. A re-registration marks
// the worker healthy immediately — it is how a restarted worker
// announces it is back, and how a restarted coordinator re-learns a
// fleet it forgot.
func (co *Coordinator) RegisterWorker(url string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[url]
	if !ok {
		w = &WorkerDoc{URL: url}
		co.workers[url] = w
		co.cfg.Logger.Info("worker registered", "worker", url, "fleet", len(co.workers))
	}
	w.Registered = true
	co.markHealthyLocked(w, "registration")
}

// markHealthyLocked records a passed probe or a registration. Caller
// holds the mutex.
func (co *Coordinator) markHealthyLocked(w *WorkerDoc, via string) {
	if !w.Healthy {
		co.cfg.Logger.Info("worker healthy", "worker", w.URL, "via", via)
	}
	w.Healthy = true
	w.LastSeen = time.Now()
}

// workerDocs snapshots the fleet, sorted by URL.
func (co *Coordinator) workerDocs() []WorkerDoc {
	co.mu.Lock()
	docs := make([]WorkerDoc, 0, len(co.workers))
	for _, w := range co.workers {
		docs = append(docs, *w)
	}
	co.mu.Unlock()
	sort.Slice(docs, func(i, k int) bool { return docs[i].URL < docs[k].URL })
	return docs
}

// healthy lists the shards in docs that pass readiness probes — the
// ones jobs may be routed to.
func healthy(docs []WorkerDoc) []string {
	var urls []string
	for _, d := range docs {
		if d.Healthy {
			urls = append(urls, d.URL)
		}
	}
	return urls
}

// markUnhealthy records a failed probe or forward. The worker stays in
// the set — a later probe or re-registration revives it.
func (co *Coordinator) markUnhealthy(url, why string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[url]
	if !ok || !w.Healthy {
		return
	}
	w.Healthy = false
	co.Count("worker_down", 1)
	co.cfg.Logger.Warn("worker unhealthy", "worker", url, "why", why)
}

// healthLoop probes every worker's /readyz each interval. A worker
// that answers 200 is routable; anything else — including a draining
// worker's 503 — takes it out of the rendezvous ranking until it
// recovers.
func (co *Coordinator) healthLoop() {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-co.baseCtx.Done():
			return
		case <-t.C:
		}
		co.mu.Lock()
		urls := make([]string, 0, len(co.workers))
		for u := range co.workers {
			urls = append(urls, u)
		}
		co.mu.Unlock()
		for _, u := range urls {
			if !co.probe(u) {
				co.markUnhealthy(u, "readyz probe failed")
				continue
			}
			co.mu.Lock()
			if w, ok := co.workers[u]; ok {
				co.markHealthyLocked(w, "probe")
			}
			co.mu.Unlock()
		}
	}
}

// probe is one readiness check, bounded by the probe period.
func (co *Coordinator) probe(url string) bool {
	_, err := co.get(co.baseCtx, url+"/readyz", 1<<16, co.cfg.HealthInterval)
	return err == nil
}

// Submission outcomes forward() distinguishes for the HTTP layer.
var (
	errAllSaturated   = errors.New("every reachable shard is saturated; retry shortly")
	errNoWorkers      = errors.New("no healthy workers")
	errAttemptsSpent  = errors.New("job re-routed too many times")
	errWorkerRejected = errors.New("worker rejected the spec")
)

// routedJob is one job as the forwarding executor tracks it. Admit
// and then the job's watcher own it in turn, so it needs no lock.
type routedJob struct {
	*server.Job
	attempts int // forwards consumed, including re-routes
}

// Admit forwards the job to its rendezvous shard synchronously, so
// saturation (429), version skew (502) and fleet loss (503) surface on
// the submitter's request with the right status; after acceptance a
// watcher goroutine owns the job.
func (co *Coordinator) Admit(j *server.Job) (int, error) {
	rj := &routedJob{Job: j}
	worker, remoteID, err := co.forward(rj)
	switch {
	case err == nil:
	case errors.Is(err, errAllSaturated):
		return http.StatusTooManyRequests, err
	case errors.Is(err, errWorkerRejected):
		return http.StatusBadGateway, err
	default:
		return http.StatusServiceUnavailable, err
	}
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		co.watch(rj, worker, remoteID)
	}()
	return http.StatusAccepted, nil
}

// forward routes one job to the best healthy shard: rendezvous order,
// skipping workers that refuse. A connection error or 5xx marks the
// worker unhealthy and moves on; 429 notes saturation and moves on.
// On acceptance the worker's job ID is returned for watching.
func (co *Coordinator) forward(j *routedJob) (worker, remoteID string, err error) {
	ctx := j.Context()
	body, err := json.Marshal(j.Spec())
	if err != nil {
		return "", "", fmt.Errorf("encoding spec: %w", err)
	}
	candidates := Rank(j.Key(), healthy(co.workerDocs()))
	if len(candidates) == 0 {
		return "", "", errNoWorkers
	}
	saturated := false
	for _, w := range candidates {
		if j.attempts >= co.cfg.ForwardAttempts {
			return "", "", errAttemptsSpent
		}
		j.attempts++
		doc, status, ferr := co.postJob(ctx, w, body, j)
		switch {
		case ferr != nil:
			if ctx.Err() != nil {
				return "", "", ctx.Err()
			}
			co.markUnhealthy(w, ferr.Error())
			continue
		case status == http.StatusOK || status == http.StatusAccepted:
			j.Start(w)
			co.mu.Lock()
			if ws, ok := co.workers[w]; ok {
				ws.Jobs++
			}
			co.mu.Unlock()
			co.Count("jobs_forwarded", 1)
			co.cfg.Logger.Info("job forwarded",
				"job_id", j.ID(), "worker", w, "remote_id", doc.ID,
				"attempt", j.attempts, "cached", doc.Cached)
			return w, doc.ID, nil
		case status == http.StatusTooManyRequests:
			saturated = true
			co.cfg.Logger.Info("worker saturated", "job_id", j.ID(), "worker", w)
			continue
		case status == http.StatusServiceUnavailable:
			co.markUnhealthy(w, "draining")
			continue
		case status == http.StatusBadRequest:
			// The coordinator validated this spec; a worker 400 means
			// version skew, and another worker may be newer.
			co.cfg.Logger.Warn("worker rejected spec",
				"job_id", j.ID(), "worker", w, "err", doc.Error)
			err = fmt.Errorf("%w: %s", errWorkerRejected, doc.Error)
			continue
		default:
			co.markUnhealthy(w, fmt.Sprintf("unexpected status %d", status))
			continue
		}
	}
	switch {
	case saturated:
		return "", "", errAllSaturated
	case err != nil:
		return "", "", err
	default:
		return "", "", errNoWorkers
	}
}

// postJob submits the spec to one worker. The forward span's
// traceparent rides along, so the worker's job trace joins the
// coordinator's; the worker's error body (if any) is decoded into the
// returned doc's Error.
func (co *Coordinator) postJob(ctx context.Context, worker string, body []byte, j *routedJob) (server.JobDoc, int, error) {
	var doc server.JobDoc
	ctx, cancel := context.WithTimeout(ctx, co.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		worker+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return doc, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if j.RequestID() != "" {
		req.Header.Set("X-Request-ID", j.RequestID())
	}
	fwd := j.StartSpan("forward")
	fwd.SetAttr("worker", worker)
	obs.PropagateTraceparent(req.Header, fwd.Context())
	resp, err := co.client.Do(req)
	fwd.End()
	if err != nil {
		return doc, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return doc, 0, err
	}
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		json.Unmarshal(raw, &eb) //nolint:errcheck // best-effort detail
		doc.Error = eb.Error
		return doc, resp.StatusCode, nil
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, 0, fmt.Errorf("decoding job doc from %s: %w", worker, err)
	}
	return doc, resp.StatusCode, nil
}

// watch follows one routed job to completion: it consumes the
// worker's SSE stream, republishes progress, and on the terminal
// event fetches the raw result bytes (the stream's embedded copy is
// re-compacted by the worker's JSON encoder — only GET .../result
// preserves the CLI-identical bytes). A broken stream before the
// terminal event means the worker died: it is marked unhealthy and
// the job re-forwards to the next shard in rendezvous order, which is
// safe because the simulation is deterministic.
func (co *Coordinator) watch(j *routedJob, worker, remoteID string) {
	ctx := j.Context()
	for {
		state, doc, err := co.follow(ctx, j, worker, remoteID)
		if err == nil {
			switch state {
			case server.StateDone:
				result, rerr := co.get(ctx, worker+"/v1/jobs/"+remoteID+"/result", 64<<20, co.cfg.ForwardTimeout)
				if rerr == nil {
					j.Finish(result, nil)
					return
				}
				// Completed on the worker but unretrievable (it died
				// between the event and the fetch): re-run elsewhere.
				co.cfg.Logger.Warn("result fetch failed",
					"job_id", j.ID(), "worker", worker, "err", rerr.Error())
				co.markUnhealthy(worker, "result fetch failed")
			case server.StateFailed:
				j.Finish(nil, errors.New(doc.Error))
				return
			case server.StateCancelled:
				j.Finish(nil, context.Canceled)
				return
			}
		}
		if ctx.Err() != nil {
			// Cancelled coordinator-side (DELETE or drain): tell the
			// worker, best-effort, and finish.
			co.cancelRemote(worker, remoteID)
			j.Finish(nil, context.Canceled)
			return
		}
		if err != nil {
			co.markUnhealthy(worker, fmt.Sprintf("event stream broke: %v", err))
		}
		co.Count("forward_retries", 1)
		co.cfg.Logger.Warn("re-routing job", "job_id", j.ID(), "lost_worker", worker)
		var ferr error
		worker, remoteID, ferr = co.forward(j)
		if ferr != nil {
			j.Finish(nil, fmt.Errorf("re-routing after worker loss: %w", ferr))
			return
		}
	}
}

// follow consumes one worker's SSE stream for the job until a
// terminal event or a stream error. Progress events are republished;
// the terminal event's state and doc are returned.
func (co *Coordinator) follow(ctx context.Context, j *routedJob, worker, remoteID string) (string, server.JobDoc, error) {
	var doc server.JobDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		worker+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return "", doc, err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return "", doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return "", doc, fmt.Errorf("event stream: status %d", resp.StatusCode)
	}
	events := newSSEReader(resp.Body)
	for {
		ev, err := events.next()
		if err != nil {
			return "", doc, err
		}
		switch ev.name {
		case "progress":
			var p server.ProgressEvent
			if json.Unmarshal(ev.data, &p) == nil {
				j.Progress(p)
			}
		case server.StateDone, server.StateFailed, server.StateCancelled:
			if err := json.Unmarshal(ev.data, &doc); err != nil {
				return "", doc, fmt.Errorf("decoding terminal event: %w", err)
			}
			return ev.name, doc, nil
		}
	}
}

// get fetches url from a worker and returns its body (at most limit
// bytes) — a completed job's raw result, exactly what the worker would
// serve any client, its /metrics exposition, or its readiness. Any
// status but 200 is an error; timeout bounds the exchange.
func (co *Coordinator) get(ctx context.Context, url string, limit int64, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, limit))
}

// cancelRemote forwards a cancellation, best-effort.
func (co *Coordinator) cancelRemote(worker, remoteID string) {
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		worker+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	if resp, err := co.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
}

// Close stops the health loop and waits for the job watchers. Drain
// calls it once every routed job is terminal.
func (co *Coordinator) Close() {
	co.baseCancel()
	co.wg.Wait()
}
