// Package sparse implements the sparse-data-structure study of §5.2:
// a reference sparse-matrix type, the CSR software representation the
// paper compares against, the overlay-based hardware representation
// (virtual pages mapped to the zero page with non-zero cache lines held
// in overlays), SpMV kernels over all three, timing-trace generators for
// the simulator, and a deterministic synthetic stand-in for the 87
// UF Sparse Matrix Collection matrices (see DESIGN.md).
package sparse

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
)

// ValuesPerLine is how many float64 values one 64 B cache line holds.
const ValuesPerLine = arch.LineSize / 8

// Matrix is a sparse matrix in per-row coordinate form, the neutral
// format every representation is built from. Cols must be a multiple of
// ValuesPerLine so cache lines never straddle rows in the dense layout.
type Matrix struct {
	Name       string
	Rows, Cols int
	RowCols    [][]int32   // sorted column indices per row
	RowVals    [][]float64 // values parallel to RowCols
	nnz        int
}

// NewMatrix creates an empty matrix.
func NewMatrix(name string, rows, cols int) *Matrix {
	if cols%ValuesPerLine != 0 {
		panic(fmt.Sprintf("sparse: cols %d not a multiple of %d", cols, ValuesPerLine))
	}
	return &Matrix{
		Name: name, Rows: rows, Cols: cols,
		RowCols: make([][]int32, rows),
		RowVals: make([][]float64, rows),
	}
}

// Set inserts or updates element (r, c). Setting zero is rejected — the
// type tracks structural non-zeros.
func (m *Matrix) Set(r, c int, v float64) {
	if v == 0 {
		panic("sparse: Set with zero value")
	}
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("sparse: Set(%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
	cols := m.RowCols[r]
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(c) })
	if i < len(cols) && cols[i] == int32(c) {
		m.RowVals[r][i] = v
		return
	}
	m.RowCols[r] = append(cols, 0)
	copy(m.RowCols[r][i+1:], m.RowCols[r][i:])
	m.RowCols[r][i] = int32(c)
	m.RowVals[r] = append(m.RowVals[r], 0)
	copy(m.RowVals[r][i+1:], m.RowVals[r][i:])
	m.RowVals[r][i] = v
	m.nnz++
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 {
	cols := m.RowCols[r]
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(c) })
	if i < len(cols) && cols[i] == int32(c) {
		return m.RowVals[r][i]
	}
	return 0
}

// NNZ returns the number of structural non-zeros.
func (m *Matrix) NNZ() int { return m.nnz }

// NNZBlocks returns how many aligned blocks of blockBytes contain at
// least one non-zero, in the dense row-major float64 layout. With
// blockBytes = 64 this is the paper's "non-zero cache line" count; other
// sizes drive Figure 11.
func (m *Matrix) NNZBlocks(blockBytes int) int {
	if blockBytes%8 != 0 {
		panic("sparse: block size must hold whole float64s")
	}
	valuesPerBlock := blockBytes / 8
	count := 0
	rowBytes := m.Cols * 8
	if blockBytes >= rowBytes {
		// Blocks span whole rows.
		rowsPerBlock := blockBytes / rowBytes
		for r := 0; r < m.Rows; r += rowsPerBlock {
			hit := false
			for rr := r; rr < r+rowsPerBlock && rr < m.Rows; rr++ {
				if len(m.RowCols[rr]) > 0 {
					hit = true
					break
				}
			}
			if hit {
				count++
			}
		}
		return count
	}
	for r := 0; r < m.Rows; r++ {
		prev := -1
		for _, c := range m.RowCols[r] {
			b := int(c) / valuesPerBlock
			if b != prev {
				count++
				prev = b
			}
		}
	}
	return count
}

// L is the paper's non-zero value locality metric: the average number of
// non-zero values in each non-zero cache line (1 ≤ L ≤ 8).
func (m *Matrix) L() float64 {
	lines := m.NNZBlocks(arch.LineSize)
	if lines == 0 {
		return 0
	}
	return float64(m.nnz) / float64(lines)
}

// MultiplyDense computes y = M·x with a dense reference loop; the ground
// truth every representation is checked against.
func (m *Matrix) MultiplyDense(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("sparse: dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var sum float64
		for i, c := range m.RowCols[r] {
			sum += m.RowVals[r][i] * x[c]
		}
		y[r] = sum
	}
	return y
}

// DenseBytes returns the dense representation's footprint.
func (m *Matrix) DenseBytes() int { return m.Rows * m.Cols * 8 }

// IdealBytes returns the information-theoretic floor the paper's
// Figure 11 normalises against: the non-zero values alone.
func (m *Matrix) IdealBytes() int { return m.nnz * 8 }

// LineID returns the dense-layout cache-line number of element (r, c).
func (m *Matrix) LineID(r, c int) int {
	return r*(m.Cols/ValuesPerLine) + c/ValuesPerLine
}

// Random generates a matrix with ≈targetNNZ non-zeros whose non-zero
// value locality lands near targetL. Placement follows the structure of
// the UF collection's large PDE/graph matrices: non-zeros cluster into a
// limited set of "active" 4 KB pages (around ten non-zeros per touched
// page, as the paper's 53× page-granularity overhead implies), chosen
// from a diagonal band plus uniform scatter. Deterministic in seed.
func Random(name string, rows, cols, targetNNZ int, targetL float64, seed int64) *Matrix {
	if targetL < 1 || targetL > ValuesPerLine {
		panic(fmt.Sprintf("sparse: targetL %v out of [1,8]", targetL))
	}
	m := NewMatrix(name, rows, cols)
	rng := rand.New(rand.NewSource(seed))
	linesPerRow := cols / ValuesPerLine
	totalLines := rows * linesPerRow
	totalPages := (totalLines + arch.LinesPerPage - 1) / arch.LinesPerPage

	lineCount := int(float64(targetNNZ)/targetL + 0.5)
	if lineCount < 1 {
		lineCount = 1
	}
	if maxLines := totalLines * 7 / 10; lineCount > maxLines {
		lineCount = maxLines
	}

	// Active pages: non-zeros per touched page grows with L (high-L
	// matrices are block-dense, low-L ones scatter), ≈10 on average over
	// an L sweep — the regime behind the paper's ~53× page-granularity
	// overhead.
	density := 2 + int(seed%4) + int(1.5*targetL+0.5)
	activeWant := targetNNZ / density
	if activeWant < 1 {
		activeWant = 1
	}
	if activeWant > lineCount {
		activeWant = lineCount
	}
	if activeWant > totalPages*7/10 {
		activeWant = totalPages * 7 / 10
	}
	if activeWant < 1 {
		activeWant = 1
	}
	pagesPerRowSpan := totalPages / rows // pages per row of the dense layout
	if pagesPerRowSpan < 1 {
		pagesPerRowSpan = 1
	}
	active := make([]int, 0, activeWant)
	seenPage := make(map[int]bool, activeWant)
	for len(active) < activeWant {
		var page int
		if rng.Float64() < 0.6 {
			// Banded: a page near the diagonal of a random row.
			r := rng.Intn(rows)
			base := r * totalPages / rows
			page = base + rng.Intn(2*pagesPerRowSpan+1) - pagesPerRowSpan
			if page < 0 {
				page = 0
			}
			if page >= totalPages {
				page = totalPages - 1
			}
		} else {
			page = rng.Intn(totalPages)
		}
		if !seenPage[page] {
			seenPage[page] = true
			active = append(active, page)
		}
	}

	// Distribute the non-zero lines over the active pages: one per page
	// first, the rest at random (bounded by page capacity).
	pageLines := make([]arch.OBitVector, len(active))
	place := func(pi int) bool {
		free := arch.LinesPerPage - pageLines[pi].Count()
		if free == 0 {
			return false
		}
		for {
			l := rng.Intn(arch.LinesPerPage)
			if !pageLines[pi].Has(l) {
				pageLines[pi] = pageLines[pi].Set(l)
				return true
			}
		}
	}
	placed := 0
	for pi := range active {
		if placed >= lineCount {
			break
		}
		if place(pi) {
			placed++
		}
	}
	for placed < lineCount {
		if place(rng.Intn(len(active))) {
			placed++
			continue
		}
		// The random pick was full: scan for any page with space, or stop
		// if capacity is exhausted.
		found := false
		for pi := range active {
			if place(pi) {
				placed++
				found = true
				break
			}
		}
		if !found {
			break
		}
	}

	// Fill each chosen line with k values, k concentrated near targetL.
	// Every (row, column) is drawn at most once, so values are collected
	// in generation order, bucketed by row into one flat array pair, and
	// each row is sorted once.
	type entry struct {
		r, c int32
		v    float64
	}
	entries := make([]entry, 0, lineCount*(int(targetL)+1))
	var perm [ValuesPerLine]int
	for pi, page := range active {
		for _, l := range pageLines[pi].Lines() {
			globalLine := page*arch.LinesPerPage + l
			if globalLine >= totalLines {
				continue
			}
			r := globalLine / linesPerRow
			lb := globalLine % linesPerRow
			n := lineFill(rng, targetL)
			// rand.Perm(ValuesPerLine)'s exact Intn sequence, unallocated.
			for i := range perm {
				j := rng.Intn(i + 1)
				perm[i], perm[j] = perm[j], i
			}
			for _, ci := range perm[:n] {
				v := rng.NormFloat64()
				if v == 0 {
					v = 1
				}
				entries = append(entries, entry{int32(r), int32(lb*ValuesPerLine + ci), v})
			}
		}
	}
	start := make([]int, rows+1)
	for _, e := range entries {
		start[e.r+1]++
	}
	for r := 0; r < rows; r++ {
		start[r+1] += start[r]
	}
	colIdx := make([]int32, len(entries))
	values := make([]float64, len(entries))
	next := append([]int(nil), start[:rows]...)
	for _, e := range entries {
		colIdx[next[e.r]], values[next[e.r]] = e.c, e.v
		next[e.r]++
	}
	for r := 0; r < rows; r++ {
		if lo, hi := start[r], start[r+1]; hi > lo {
			sortRow(colIdx[lo:hi], values[lo:hi])
			m.RowCols[r], m.RowVals[r] = colIdx[lo:hi:hi], values[lo:hi:hi]
		}
	}
	m.nnz = len(entries)
	return m
}

// sortRow sorts a row's columns ascending, carrying the values along. A
// typed insertion sort: rows are short, and sort.Sort's interface calls
// would cost more than the sorting itself.
func sortRow(cols []int32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i
		for ; j > 0 && cols[j-1] > c; j-- {
			cols[j], vals[j] = cols[j-1], vals[j-1]
		}
		cols[j], vals[j] = c, v
	}
}

// ExactLines generates a matrix with exactly nnzLines fully dense
// non-zero cache lines (L = 8), chosen uniformly at random. The §5.2
// sparsity sweep uses it to dial the zero-line fraction from 0 % to
// nearly 100 % without the clustered suite generator's fill caps.
func ExactLines(name string, rows, cols, nnzLines int, seed int64) *Matrix {
	m := NewMatrix(name, rows, cols)
	rng := rand.New(rand.NewSource(seed))
	linesPerRow := cols / ValuesPerLine
	totalLines := rows * linesPerRow
	if nnzLines > totalLines {
		nnzLines = totalLines
	}
	for _, gl := range rng.Perm(totalLines)[:nnzLines] {
		r := gl / linesPerRow
		base := (gl % linesPerRow) * ValuesPerLine
		for k := 0; k < ValuesPerLine; k++ {
			v := rng.NormFloat64()
			if v == 0 {
				v = 1
			}
			m.Set(r, base+k, v)
		}
	}
	return m
}

// lineFill draws the number of non-zeros for one line so the mean tracks
// target: floor(target) or ceil(target) with the fractional probability.
func lineFill(rng *rand.Rand, target float64) int {
	lo := int(target)
	frac := target - float64(lo)
	n := lo
	if rng.Float64() < frac {
		n++
	}
	if n < 1 {
		n = 1
	}
	if n > ValuesPerLine {
		n = ValuesPerLine
	}
	return n
}
