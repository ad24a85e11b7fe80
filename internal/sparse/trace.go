package sparse

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/vm"
)

// This file generates the simulator instruction traces for one SpMV
// iteration under each representation. The traces encode exactly the
// memory traffic each representation implies:
//
//   - dense: every cache line of the matrix is loaded;
//   - CSR: values, column indices and row pointers stream sequentially,
//     and every non-zero costs an x-vector gather;
//   - overlay: the hardware visits only overlay (non-zero) lines, which
//     the stream prefetcher can follow through the Overlay Address Space.

// Layout records where SpMV operands live in the process address space.
type Layout struct {
	MatBase arch.VirtAddr
	XBase   arch.VirtAddr
	YBase   arch.VirtAddr
	// CSR array bases (zero for dense/overlay layouts).
	ValsBase   arch.VirtAddr
	ColsBase   arch.VirtAddr
	RowPtrBase arch.VirtAddr
}

func pagesFor(bytes int) int { return (bytes + arch.PageSize - 1) / arch.PageSize }

// MapDense maps a dense matrix plus x and y vectors and returns the
// layout. The matrix pages are ordinary anonymous memory.
func MapDense(f *core.Framework, proc *vm.Process, m *Matrix) (Layout, error) {
	var l Layout
	next := arch.VPN(0)
	alloc := func(bytes int) (arch.VirtAddr, error) {
		va := next.Addr()
		n := pagesFor(bytes)
		if err := f.VM.MapAnon(proc, next, n); err != nil {
			return 0, err
		}
		next += arch.VPN(n)
		return va, nil
	}
	var err error
	if l.MatBase, err = alloc(m.Rows * m.Cols * 8); err != nil {
		return l, err
	}
	if l.XBase, err = alloc(m.Cols * 8); err != nil {
		return l, err
	}
	if l.YBase, err = alloc(m.Rows * 8); err != nil {
		return l, err
	}
	return l, nil
}

// MapOverlay builds the overlay representation of m plus x and y vectors.
func MapOverlay(f *core.Framework, proc *vm.Process, m *Matrix) (*OverlayMatrix, Layout, error) {
	var l Layout
	matPages := pagesFor(m.Rows * m.Cols * 8)
	o, err := BuildOverlay(f, proc, 0, m)
	if err != nil {
		return nil, l, err
	}
	l.MatBase = 0
	next := arch.VPN(matPages)
	if err := f.VM.MapAnon(proc, next, pagesFor(m.Cols*8)); err != nil {
		return nil, l, err
	}
	l.XBase = next.Addr()
	next += arch.VPN(pagesFor(m.Cols * 8))
	if err := f.VM.MapAnon(proc, next, pagesFor(m.Rows*8)); err != nil {
		return nil, l, err
	}
	l.YBase = next.Addr()
	return o, l, nil
}

// MapCSR maps the CSR arrays plus x and y vectors.
func MapCSR(f *core.Framework, proc *vm.Process, c *CSR) (Layout, error) {
	var l Layout
	next := arch.VPN(0)
	alloc := func(bytes int) (arch.VirtAddr, error) {
		va := next.Addr()
		n := pagesFor(bytes)
		if n == 0 {
			n = 1
		}
		if err := f.VM.MapAnon(proc, next, n); err != nil {
			return 0, err
		}
		next += arch.VPN(n)
		return va, nil
	}
	var err error
	if l.ValsBase, err = alloc(len(c.Vals) * 8); err != nil {
		return l, err
	}
	if l.ColsBase, err = alloc(len(c.Cols) * 4); err != nil {
		return l, err
	}
	if l.RowPtrBase, err = alloc(len(c.RowPtr) * 4); err != nil {
		return l, err
	}
	if l.XBase, err = alloc(c.NCols * 8); err != nil {
		return l, err
	}
	if l.YBase, err = alloc(c.Rows() * 8); err != nil {
		return l, err
	}
	return l, nil
}

// instrQueue is the FIFO a trace generator refills and drains. Popping
// advances a head index, and a drained queue resets to its backing
// array's start, so steady-state generation allocates nothing (the
// capacity covers the most any generator pushes per step).
type instrQueue struct {
	buf  []cpu.Instr
	head int
}

func newInstrQueue() *instrQueue { return &instrQueue{buf: make([]cpu.Instr, 0, 8)} }

func (q *instrQueue) push(ins ...cpu.Instr) { q.buf = append(q.buf, ins...) }

func (q *instrQueue) pop() (cpu.Instr, bool) {
	if q.head < len(q.buf) {
		q.head++
		return q.buf[q.head-1], true
	}
	q.buf, q.head = q.buf[:0], 0
	return cpu.Instr{}, false
}

// DenseTrace yields one dense SpMV iteration: for every matrix line, load
// the line and the matching x line, then 8 multiply-accumulates; one y
// store per row. This is both the dense baseline and (conceptually) the
// unmodified dense code the overlay model accelerates.
func DenseTrace(m *Matrix, l Layout) cpu.Trace {
	linesPerRow := m.Cols / ValuesPerLine
	r, lb := 0, 0
	q := newInstrQueue()
	return cpu.FuncTrace(func() (cpu.Instr, bool) {
		for {
			if in, ok := q.pop(); ok {
				return in, true
			}
			if r >= m.Rows {
				return cpu.Instr{}, false
			}
			q.push(
				cpu.Instr{Kind: cpu.Load, VA: l.MatBase + arch.VirtAddr((r*linesPerRow+lb)*arch.LineSize)},
				cpu.Instr{Kind: cpu.Load, VA: l.XBase + arch.VirtAddr(lb*arch.LineSize)},
				cpu.Instr{Kind: cpu.Compute, N: ValuesPerLine},
			)
			lb++
			if lb >= linesPerRow {
				q.push(cpu.Instr{Kind: cpu.Store, VA: l.YBase + arch.VirtAddr(r*8)})
				lb = 0
				r++
			}
		}
	})
}

// CSRTrace yields one CSR SpMV iteration with the representation's extra
// index traffic: sequential val/col/rowptr streams plus one x gather per
// non-zero. The multiply-accumulates are batched per value line, matching
// a vectorised MKL-style inner loop.
func CSRTrace(c *CSR, l Layout) cpu.Trace {
	r, i := 0, 0
	fmasPending := 0
	q := newInstrQueue()
	flushFMAs := func() {
		if fmasPending > 0 {
			q.push(cpu.Instr{Kind: cpu.Compute, N: fmasPending})
			fmasPending = 0
		}
	}
	return cpu.FuncTrace(func() (cpu.Instr, bool) {
		for {
			if in, ok := q.pop(); ok {
				return in, true
			}
			if r >= c.Rows() {
				return cpu.Instr{}, false
			}
			// Row prologue: the row-pointer line, amortised 16 rows/line.
			if i == int(c.RowPtr[r]) && r%16 == 0 {
				q.push(cpu.Instr{
					Kind: cpu.Load, VA: l.RowPtrBase + arch.VirtAddr(r*4),
				})
			}
			if i >= int(c.RowPtr[r+1]) {
				// Row epilogue: flush the row's tail FMAs, store y[r].
				flushFMAs()
				q.push(cpu.Instr{
					Kind: cpu.Store, VA: l.YBase + arch.VirtAddr(r*8),
				})
				r++
				continue
			}
			if i%ValuesPerLine == 0 {
				flushFMAs()
				q.push(cpu.Instr{Kind: cpu.Load, VA: l.ValsBase + arch.VirtAddr(i*8)})
			}
			if i%16 == 0 {
				q.push(cpu.Instr{Kind: cpu.Load, VA: l.ColsBase + arch.VirtAddr(i*4)})
			}
			col := int(c.Cols[i])
			q.push(cpu.Instr{Kind: cpu.Load, VA: l.XBase + arch.VirtAddr(col*8)})
			fmasPending++
			i++
		}
	})
}

// OverlayTrace yields one overlay SpMV iteration: the hardware walks only
// the overlay lines of each matrix page (their addresses form sequential
// streams in the Overlay Address Space, which the prefetcher follows),
// loading the matching x line and computing on all 8 values per line.
func OverlayTrace(o *OverlayMatrix, l Layout) (cpu.Trace, error) {
	if o.Cols%ValuesPerLine != 0 {
		return nil, fmt.Errorf("sparse: cols not line aligned")
	}
	linesPerRow := o.Cols / ValuesPerLine
	var lines []int // global line numbers within the matrix, in layout order
	for page := 0; page < o.Pages(); page++ {
		obits := o.OBitsOf(page)
		for _, li := range obits.Lines() {
			lines = append(lines, page*arch.LinesPerPage+li)
		}
	}
	idx := 0
	lastRow := -1
	flushed := false
	q := newInstrQueue()
	return cpu.FuncTrace(func() (cpu.Instr, bool) {
		for {
			if in, ok := q.pop(); ok {
				return in, true
			}
			if idx >= len(lines) {
				if lastRow >= 0 && !flushed {
					flushed = true
					return cpu.Instr{Kind: cpu.Store, VA: l.YBase + arch.VirtAddr(lastRow*8)}, true
				}
				return cpu.Instr{}, false
			}
			gl := lines[idx]
			idx++
			row := gl / linesPerRow
			if lastRow != -1 && row != lastRow {
				q.push(cpu.Instr{Kind: cpu.Store, VA: l.YBase + arch.VirtAddr(lastRow*8)})
			}
			lastRow = row
			colLine := gl % linesPerRow
			q.push(
				// Matrix lines stream through the overlay computation
				// model (OBitVector-driven, no TLB); x is a normal load.
				cpu.Instr{Kind: cpu.LoadOverlay, VA: l.MatBase + arch.VirtAddr(gl*arch.LineSize)},
				cpu.Instr{Kind: cpu.Load, VA: l.XBase + arch.VirtAddr(colLine*arch.LineSize)},
				cpu.Instr{Kind: cpu.Compute, N: ValuesPerLine},
			)
		}
	}), nil
}
