package exp

// Parallelism plumbing: every suite/sweep runner fans its independent
// simulations through internal/harness. Each job builds its own
// framework (engine, memory system, seeded RNGs), so simulated metrics
// are bit-identical at any worker count; see DESIGN.md "Parallel
// experiments" for the determinism argument.

import (
	"context"
	"io"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// Pool carries the fan-out settings every suite/sweep runner accepts:
// how many worker goroutines to use and where to report live progress.
type Pool struct {
	// Parallel is the worker count (0: GOMAXPROCS, 1: sequential).
	Parallel int

	// Progress, when non-nil, receives the harness's live
	// jobs-done/ETA line (typically stderr).
	Progress io.Writer

	// OnProgress, when non-nil, receives structured per-job completion
	// totals (done, total, failed) — the serve layer streams these to
	// clients as SSE events.
	OnProgress harness.ProgressFunc

	// Cold disables warm-state snapshot reuse: every simulation is
	// built and warmed from scratch, as the runners did before the
	// snapshot layer existed. Results are bit-identical either way (the
	// CI equivalence gate diffs the two); Cold exists for that gate and
	// for debugging.
	Cold bool

	// Snap, when non-nil, receives the run's warm-state reuse tallies
	// (families built, forks resumed, bytes copied, warm-up time saved).
	Snap *SnapshotStats

	// Snapshots, when non-nil, caches family snapshots across runs —
	// the serving layer wires one cache across jobs so repeated specs
	// with a common configuration family skip the warm-up entirely.
	// With a nil cache every run builds its own families.
	Snapshots *SnapshotCache

	// Epoch and Trace are the fork CLI's -epoch and -tracelog inputs,
	// kept out of the job spec and its cache key: the post-fork series
	// sampling period in cycles (0 = sim.DefaultEpoch) and the trace
	// ring that receives structured simulator events (nil = none).
	Epoch sim.Cycle
	Trace *sim.TraceLog
}

// opts builds the harness options for one labelled sweep.
func (p Pool) opts(label string) harness.Options {
	return harness.Options{
		Parallel:   p.Parallel,
		Progress:   p.Progress,
		OnProgress: p.OnProgress,
		Label:      label,
	}
}

// suiteSubset builds the matrix suite on the pool's workers — one job
// per spec, collected by index and then stably sorted by L, so the
// result equals sparse.BuildSuite at any worker count — and evenly
// subsamples it to limit entries (limit <= 0 keeps all 87) so the L
// range stays covered.
func suiteSubset(ctx context.Context, pool Pool, limit int) ([]*sparse.Matrix, error) {
	ms, err := harness.Map(ctx, harness.Options{Parallel: pool.Parallel, Label: "suite"}, sparse.SuiteSpecs(),
		func(_ context.Context, s sparse.SuiteSpec, _ int) (*sparse.Matrix, error) { return s.Build(), nil })
	if err != nil {
		return nil, err
	}
	sparse.SortByL(ms)
	if limit > 0 && limit < len(ms) {
		sub := make([]*sparse.Matrix, 0, limit)
		for i := 0; i < limit; i++ {
			sub = append(sub, ms[i*len(ms)/limit])
		}
		ms = sub
	}
	return ms, nil
}
