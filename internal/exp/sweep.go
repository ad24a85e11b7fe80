package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// SweepResult is one point of the §5.2 in-text experiment: randomly
// generated matrices with varying sparsity, overlay representation versus
// the dense baseline.
type SweepResult struct {
	ZeroLineFrac float64 // fraction of cache lines that are entirely zero
	OverlayCycles,
	DenseCycles uint64
}

// Speedup is dense/overlay cycles (≥ 1 expected at any sparsity).
func (r SweepResult) Speedup() float64 {
	if r.OverlayCycles == 0 {
		return 0
	}
	return float64(r.DenseCycles) / float64(r.OverlayCycles)
}

// sweepMatrix generates point i's matrix from its point-indexed seed.
// Fully dense lines (L = 8) isolate the zero-line-skipping effect; the
// exact generator reaches 0 % zero lines, which the clustered suite
// generator deliberately cannot.
func sweepMatrix(i, points, rows int) *sparse.Matrix {
	totalLines := rows * rows / sparse.ValuesPerLine
	frac := float64(i) / float64(points-1) // fraction of zero lines
	nnzLines := int(float64(totalLines) * (1 - frac))
	if nnzLines < 1 {
		nnzLines = 1
	}
	return sparse.ExactLines(fmt.Sprintf("sweep%02d", i), rows, rows, nnzLines, int64(900+i))
}

// runSweepOverlay maps the matrix as an overlay on f, cross-checks the
// product against the dense multiply, and simulates one SpMV iteration.
func runSweepOverlay(f *core.Framework, m *sparse.Matrix) (uint64, error) {
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1.0 + float64(i%7)
	}
	want := m.MultiplyDense(x)
	proc := f.VM.NewProcess()
	o, layout, err := sparse.MapOverlay(f, proc, m)
	if err != nil {
		return 0, err
	}
	got, err := o.Multiply(x)
	if err != nil {
		return 0, err
	}
	if !vectorsEqual(want, got) {
		return 0, fmt.Errorf("exp: overlay SpMV result diverges for %s", m.Name)
	}
	trace, err := sparse.OverlayTrace(o, layout)
	if err != nil {
		return 0, err
	}
	return simulateTrace(f, proc, trace)
}

// runSweepDense maps the matrix densely on f and simulates one SpMV
// iteration. The dense trace's address stream depends only on the
// matrix dimensions, never on its values, so every point of a sweep
// has the same dense cycle count.
func runSweepDense(f *core.Framework, m *sparse.Matrix) (uint64, error) {
	proc := f.VM.NewProcess()
	layout, err := sparse.MapDense(f, proc, m)
	if err != nil {
		return 0, err
	}
	return simulateTrace(f, proc, sparse.DenseTrace(m, layout))
}

// sweepFamily is one sweep's shared warm state: the pristine framework
// capture every point forks, plus the dense baseline measured once
// (identical for every point, see runSweepDense).
type sweepFamily struct {
	pristineFamily
	denseCycles uint64
	denseBytes  uint64 // copy-on-write bytes the dense baseline's fork copied
}

// sweepFamilyKey canonicalises the knob that shapes a sweep family's
// state (the matrix dimension fixes both the framework config and the
// dense baseline).
func sweepFamilyKey(rows int) string {
	return fmt.Sprintf("sweep/rows=%d", rows)
}

// warmSweepFamily captures a pristine framework for the sweep's
// configuration and measures the dense baseline once, on a fork of
// that capture — exactly what the cold path measures per point.
func warmSweepFamily(ctx context.Context, points, rows int) (*sweepFamily, error) {
	key := sweepFamilyKey(rows)
	start := time.Now()
	f, err := core.New(spmvConfig(rows * rows * 8))
	if err != nil {
		return nil, err
	}
	sp := snapSpan(ctx, "fork.snapshot", key)
	fam := &sweepFamily{pristineFamily: pristineFamily{snap: f.Snapshot()}}
	sp.End()

	df, _ := fam.fork(ctx, Pool{}, key) // tallied per run by RunSparsitySweepPool
	fam.denseCycles, err = runSweepDense(df, sweepMatrix(0, points, rows))
	if err != nil {
		return nil, err
	}
	fam.denseBytes = df.Mem.BytesCopied()
	fam.warmUS = uint64(time.Since(start).Microseconds())
	return fam, nil
}

// RunSparsitySweepPool measures `points` sparsity levels from dense (0 %
// zero lines) to nearly empty, on rows×rows matrices, with one job per
// point fanned across the pool. Each job generates its own matrix from
// a point-indexed seed, so the sweep is deterministic at any worker
// count.
//
// By default the sweep builds one family: a pristine framework capture
// every point forks for its overlay run, plus the dense baseline
// simulated once (every point's dense trace touches the same address
// stream). Results are bit-identical to pool.Cold, which builds fresh
// frameworks and re-measures the dense baseline at every point.
func RunSparsitySweepPool(ctx context.Context, pool Pool, points, rows int) ([]SweepResult, error) {
	if points < 2 {
		return nil, fmt.Errorf("exp: need at least 2 sweep points")
	}
	totalLines := rows * rows / sparse.ValuesPerLine
	indices := make([]int, points)
	for i := range indices {
		indices[i] = i
	}

	if pool.Cold {
		return harness.Map(ctx, pool.opts("sweep"), indices,
			func(_ context.Context, i, _ int) (SweepResult, error) {
				m := sweepMatrix(i, points, rows)
				fo, err := core.New(spmvConfig(m.DenseBytes()))
				if err != nil {
					return SweepResult{}, err
				}
				overlay, err := runSweepOverlay(fo, m)
				if err != nil {
					return SweepResult{}, err
				}
				fd, err := core.New(spmvConfig(m.DenseBytes()))
				if err != nil {
					return SweepResult{}, err
				}
				dense, err := runSweepDense(fd, m)
				if err != nil {
					return SweepResult{}, err
				}
				return SweepResult{
					ZeroLineFrac:  1 - float64(m.NNZBlocks(64))/float64(totalLines),
					OverlayCycles: overlay,
					DenseCycles:   dense,
				}, nil
			})
	}

	v, err := pool.Snapshots.getOrBuild(sweepFamilyKey(rows), func() (any, error) {
		return warmSweepFamily(ctx, points, rows)
	})
	if err != nil {
		return nil, err
	}
	fam := v.(*sweepFamily)
	// The dense baseline ran on a fork of the family when it was built;
	// every run that uses the family tallies that fork, cached or not.
	pool.Snap.addFork(sweepFamilyKey(rows), fam.denseBytes, fam.warmUS)
	return harness.Map(ctx, pool.opts("sweep"), indices,
		func(jobCtx context.Context, i, _ int) (SweepResult, error) {
			m := sweepMatrix(i, points, rows)
			f, done := fam.fork(jobCtx, pool, sweepFamilyKey(rows))
			overlay, err := runSweepOverlay(f, m)
			if err != nil {
				return SweepResult{}, err
			}
			done(f)
			return SweepResult{
				ZeroLineFrac:  1 - float64(m.NNZBlocks(64))/float64(totalLines),
				OverlayCycles: overlay,
				DenseCycles:   fam.denseCycles,
			}, nil
		})
}

// PrintSweep renders the sparsity sweep (§5.2 in-text claim: overlays
// outperform the dense representation at all sparsity levels, with the
// gap growing linearly in the zero-line fraction).
func PrintSweep(w io.Writer, results []SweepResult) {
	fmt.Fprintln(w, "Sparsity sweep: overlay vs dense representation (one SpMV iteration)")
	fmt.Fprintf(w, "%12s %15s %15s %10s\n", "zero lines", "overlay cycles", "dense cycles", "speedup")
	for _, r := range results {
		fmt.Fprintf(w, "%11.0f%% %15d %15d %9.2fx\n",
			100*r.ZeroLineFrac, r.OverlayCycles, r.DenseCycles, r.Speedup())
	}
	fmt.Fprintln(w, "(paper: overlay outperforms dense at all sparsity levels; gap grows with zero-line fraction)")
}
