package sparse

import (
	"fmt"
	"sort"
)

// SuiteSpec names one synthetic stand-in for a UF-collection matrix.
type SuiteSpec struct {
	Name      string
	Rows      int
	Cols      int
	TargetNNZ int
	TargetL   float64
	Seed      int64
}

// SuiteSize matches the paper: 87 large real-world matrices.
const SuiteSize = 87

// SuiteSpecs returns the 87-matrix suite. Target L values sweep 1.05–8.0
// (the paper's observed range; its extremes are poisson3Db at L ≈ 1.09
// and raefsky4 at L = 8), with sizes varied deterministically. Matrices
// are scaled to tens of thousands of non-zeros so a full sweep simulates
// in laptop time; both representations scale identically (DESIGN.md).
func SuiteSpecs() []SuiteSpec {
	specs := make([]SuiteSpec, 0, SuiteSize)
	for i := 0; i < SuiteSize; i++ {
		frac := float64(i) / float64(SuiteSize-1)
		targetL := 1.05 + frac*(8.0-1.05)
		name := fmt.Sprintf("synth%02d", i+1)
		switch i {
		case 0:
			name = "poisson3Db-like"
			targetL = 1.09
		case SuiteSize - 1:
			name = "raefsky4-like"
			targetL = 8.0
		}
		// Large matrices (32 MB dense) with ~12 non-zeros per row: the
		// same page-level sparsity regime as the UF collection's big
		// matrices, scaled ~60× down in non-zero count (DESIGN.md).
		rows := 2048
		nnz := rows * (10 + i%5)

		specs = append(specs, SuiteSpec{
			Name: name, Rows: rows, Cols: rows,
			TargetNNZ: nnz, TargetL: targetL, Seed: int64(7000 + i),
		})
	}
	return specs
}

// Build materialises the spec's matrix.
func (s SuiteSpec) Build() *Matrix {
	return Random(s.Name, s.Rows, s.Cols, s.TargetNNZ, s.TargetL, s.Seed)
}

// BuildSuite materialises all matrices, sorted by ascending measured L —
// the x-axis order of Figures 10 and 11.
func BuildSuite() []*Matrix {
	specs := SuiteSpecs()
	ms := make([]*Matrix, len(specs))
	for i, s := range specs {
		ms[i] = s.Build()
	}
	SortByL(ms)
	return ms
}

// SortByL stably sorts matrices by ascending measured L, computing each
// L once rather than on every comparison.
func SortByL(ms []*Matrix) {
	type keyed struct {
		m *Matrix
		l float64
	}
	ks := make([]keyed, len(ms))
	for i, m := range ms {
		ks[i] = keyed{m, m.L()}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].l < ks[j].l })
	for i := range ks {
		ms[i] = ks[i].m
	}
}
