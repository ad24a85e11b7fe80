// Package server exposes the experiment harness over HTTP: the job
// layer behind the `overlaysim serve` and `overlaysim coordinator`
// subcommands. It turns the repository's deterministic simulations into
// a cacheable network service, the way the paper's framework separates
// mechanism (the overlay hardware of §3–4) from the workloads driving
// it — here the simulator is the mechanism and HTTP clients are the
// workloads.
//
// FrontEnd is the one job front-end both processes run: clients POST a
// canonical JSON job spec (exp.JobSpec, validated against the same flag
// tables the CLI uses) to /v1/jobs; a submission is answered from the
// LRU keyed by the spec's canonical hash, joins an identical job in
// flight, or is answered from the persistent store, and otherwise is
// handed to an Executor. Progress streams to subscribers as Server-Sent
// Events; results are written through to the store and the LRU.
// /metrics renders the internal/sim telemetry registry in Prometheus
// text format. Server is the local executor: a bounded queue
// (backpressure is a 429 with Retry-After, never an unbounded buffer)
// drained by a fixed pool of workers that run each job through
// internal/harness (panic recovery and the per-job timeout); the
// coordinator's forwarding executor lives in internal/cluster.
//
// Invariants the package maintains:
//
//   - Determinism: a job's result depends only on its canonical spec.
//     The simulator is deterministic and bit-identical at any harness
//     width, so serving a cached result is indistinguishable from
//     re-running the job — the integration tests in cmd/overlaysim
//     prove served results byte-identical to CLI -json output.
//   - Bounded memory: at most QueueDepth jobs wait, at most Workers
//     run, at most CacheSize results and 1024 terminal job records are
//     retained.
//   - Clean shutdown: Drain stops intake (503), lets in-flight jobs
//     finish inside the grace period, and cancels stragglers after it.
//   - Job records are immutable once terminal; every terminal state
//     closes the job's done channel exactly once and delivers a final
//     SSE event to every subscriber.
//
// See docs/API.md for the wire protocol.
package server
