package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/harness"
	"repro/internal/sparse"
)

// LineSizes are the block granularities Figure 11 sweeps, from sub-line
// management to whole-page (the "practical today" point the paper shows
// costs 53× over ideal).
var LineSizes = []int{16, 32, 64, 256, 1024, 4096}

// LineSizeResult is one Figure 11 column: one matrix's memory overhead at
// each management granularity, normalised to the ideal store (8 B per
// non-zero), plus CSR's overhead for the crossover markers.
type LineSizeResult struct {
	Matrix    string
	L         float64
	Overheads map[int]float64
	CSR       float64
}

// RunFigure11 computes the line-size sensitivity for the suite (limit ≤ 0
// runs all 87 matrices). Purely analytic — no simulation needed, exactly
// as in the paper. It is RunFigure11Pool at Parallel 1.
func RunFigure11(limit int) []LineSizeResult {
	results, _ := RunFigure11Pool(context.Background(), Pool{Parallel: 1}, limit)
	return results
}

// RunFigure11Pool computes the per-matrix overheads with one job per
// matrix fanned across the pool, then applies the same stable sort by
// L as the sequential path (jobs are collected by index, so the
// pre-sort order — and therefore the sorted output — is identical at
// any worker count). The only possible error is pool cancellation.
func RunFigure11Pool(ctx context.Context, pool Pool, limit int) ([]LineSizeResult, error) {
	ms, err := suiteSubset(ctx, pool, limit)
	if err != nil {
		return nil, err
	}
	results, err := harness.Map(ctx, pool.opts("linesize"), ms,
		func(_ context.Context, m *sparse.Matrix, _ int) (LineSizeResult, error) {
			r := LineSizeResult{Matrix: m.Name, L: m.L(), Overheads: make(map[int]float64, len(LineSizes))}
			ideal := float64(m.IdealBytes())
			for _, sz := range LineSizes {
				r.Overheads[sz] = float64(m.NNZBlocks(sz)*sz) / ideal
			}
			csr := sparse.NewCSR(m)
			r.CSR = float64(csr.MemoryBytes()) / ideal
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].L < results[j].L })
	return results, nil
}

// PrintFigure11 renders the sweep with the paper's aggregate: the mean
// overhead of page-granularity management and, per line size, how many
// matrices beat CSR (the circled crossovers).
func PrintFigure11(w io.Writer, results []LineSizeResult) {
	fmt.Fprintln(w, "Figure 11: Memory overhead vs ideal (non-zero values only)")
	fmt.Fprintf(w, "%-18s %6s %7s", "matrix", "L", "CSR")
	for _, sz := range LineSizes {
		fmt.Fprintf(w, " %7dB", sz)
	}
	fmt.Fprintln(w)
	sums := make(map[int]float64, len(LineSizes))
	beatCSR := make(map[int]int, len(LineSizes))
	for _, r := range results {
		fmt.Fprintf(w, "%-18s %6.2f %7.2f", r.Matrix, r.L, r.CSR)
		for _, sz := range LineSizes {
			fmt.Fprintf(w, " %8.2f", r.Overheads[sz])
			sums[sz] += r.Overheads[sz]
			if r.Overheads[sz] < r.CSR {
				beatCSR[sz]++
			}
		}
		fmt.Fprintln(w)
	}
	n := float64(len(results))
	fmt.Fprintf(w, "%-18s %6s %7s", "mean", "-", "-")
	for _, sz := range LineSizes {
		fmt.Fprintf(w, " %8.2f", sums[sz]/n)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "\npage (4KB) granularity costs %.0fx over ideal on average (paper: 53x)\n", sums[4096]/n)
	fmt.Fprint(w, "matrices beating CSR on memory, by granularity:")
	for _, sz := range LineSizes {
		fmt.Fprintf(w, "  %dB:%d", sz, beatCSR[sz])
	}
	fmt.Fprintf(w, " of %d (finer granularity crosses CSR on more matrices)\n", len(results))
}
