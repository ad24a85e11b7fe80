// Package mem models main memory: a pool of 4 KB physical frames with
// byte-addressable contents, a frame allocator, and the zero page. Main
// memory is split between regular physical pages and the Overlay Memory
// Store (the OMS region is managed by internal/oms; this package only
// hands out frames).
//
// Contents are stored functionally so that techniques built on the
// framework (fork isolation, deduplication, speculation, SpMV) can be
// verified for value-correctness, not just timing.
package mem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/arch"
)

// ZeroPPN is the reserved all-zeroes physical page. Sparse data structures
// map every virtual page to it and keep non-zero lines in overlays (§5.2).
const ZeroPPN arch.PPN = 0

// Memory is byte-addressable main memory with lazy frame materialisation:
// a frame with no contents reads as zeroes and occupies no host memory.
// The frame and allocation tables are dense slices indexed by frame
// number, so per-access lookups are a bounds check and a load rather
// than a map probe.
type Memory struct {
	frames     []*[arch.PageSize]byte // nil entry: frame reads as zero
	totalPages int
	nextFree   arch.PPN
	freeList   []arch.PPN
	allocated  []bool
	allocCount int

	// shared, when non-nil, is a bitmap over frames marking pages whose
	// backing array is shared with a Snapshot (copy-on-write): the first
	// materialising write to a shared frame copies it into a private
	// array. Replacing the frame pointer (Alloc recycling, CopyPage of a
	// zero source) only clears the bit — the shared array is never
	// mutated, so concurrent forks of one snapshot stay independent.
	shared      []uint64
	bytesCopied uint64
}

// New creates a memory with capacity for totalPages physical frames.
// Frame 0 is reserved as the zero page and is never handed out.
func New(totalPages int) *Memory {
	if totalPages < 2 {
		panic("mem: need at least two pages (zero page + one usable)")
	}
	m := &Memory{
		frames:     make([]*[arch.PageSize]byte, totalPages),
		totalPages: totalPages,
		nextFree:   1,
		allocated:  make([]bool, totalPages),
		allocCount: 1,
	}
	m.allocated[ZeroPPN] = true
	return m
}

// TotalPages returns the configured capacity in frames.
func (m *Memory) TotalPages() int { return m.totalPages }

// AllocatedPages returns the number of frames currently allocated,
// including the reserved zero page.
func (m *Memory) AllocatedPages() int { return m.allocCount }

// FreePages returns the number of frames still available.
func (m *Memory) FreePages() int { return m.totalPages - m.allocCount }

// Alloc returns a free frame. Frames are handed out zeroed.
func (m *Memory) Alloc() (arch.PPN, error) {
	if n := len(m.freeList); n > 0 {
		ppn := m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
		m.allocated[ppn] = true
		m.allocCount++
		m.frames[ppn] = nil // recycled frames read as zero again
		m.clearShared(ppn)
		return ppn, nil
	}
	if int(m.nextFree) >= m.totalPages {
		return 0, fmt.Errorf("mem: out of physical memory (%d pages)", m.totalPages)
	}
	ppn := m.nextFree
	m.nextFree++
	m.allocated[ppn] = true
	m.allocCount++
	return ppn, nil
}

// Free returns a frame to the allocator. Freeing the zero page or an
// unallocated frame panics: both indicate a bookkeeping bug upstream.
func (m *Memory) Free(ppn arch.PPN) {
	if ppn == ZeroPPN {
		panic("mem: freeing the zero page")
	}
	if !m.allocated[ppn] {
		panic(fmt.Sprintf("mem: double free of ppn %#x", uint64(ppn)))
	}
	m.allocated[ppn] = false
	m.allocCount--
	m.freeList = append(m.freeList, ppn)
}

// Allocated reports whether the frame is currently allocated.
func (m *Memory) Allocated(ppn arch.PPN) bool {
	return int(ppn) < len(m.allocated) && m.allocated[ppn]
}

func (m *Memory) frame(ppn arch.PPN, materialise bool) *[arch.PageSize]byte {
	f := m.frames[ppn]
	if !materialise {
		return f
	}
	if f == nil {
		f = new([arch.PageSize]byte)
		m.frames[ppn] = f
		return f
	}
	if m.shared != nil && m.shared[ppn>>6]&(1<<(uint(ppn)&63)) != 0 {
		// First write to a frame shared with a snapshot: copy on write.
		c := new([arch.PageSize]byte)
		*c = *f
		m.frames[ppn] = c
		m.shared[ppn>>6] &^= 1 << (uint(ppn) & 63)
		m.bytesCopied += arch.PageSize
		return c
	}
	return f
}

func (m *Memory) clearShared(ppn arch.PPN) {
	if m.shared != nil {
		m.shared[ppn>>6] &^= 1 << (uint(ppn) & 63)
	}
}

// ReadLine copies cache line `line` of frame ppn into dst (64 bytes).
func (m *Memory) ReadLine(ppn arch.PPN, line int, dst []byte) {
	checkLine(line)
	f := m.frame(ppn, false)
	if f == nil {
		for i := range dst[:arch.LineSize] {
			dst[i] = 0
		}
		return
	}
	copy(dst, f[line*arch.LineSize:(line+1)*arch.LineSize])
}

// WriteLine stores 64 bytes into cache line `line` of frame ppn.
func (m *Memory) WriteLine(ppn arch.PPN, line int, src []byte) {
	checkLine(line)
	if ppn == ZeroPPN {
		panic("mem: write to the zero page")
	}
	f := m.frame(ppn, true)
	copy(f[line*arch.LineSize:(line+1)*arch.LineSize], src)
}

// Read returns the byte at (ppn, offset).
func (m *Memory) Read(ppn arch.PPN, offset uint64) byte {
	checkOffset(offset)
	f := m.frame(ppn, false)
	if f == nil {
		return 0
	}
	return f[offset]
}

// Write stores one byte at (ppn, offset).
func (m *Memory) Write(ppn arch.PPN, offset uint64, b byte) {
	checkOffset(offset)
	if ppn == ZeroPPN {
		panic("mem: write to the zero page")
	}
	m.frame(ppn, true)[offset] = b
}

// Read64 loads a little-endian uint64 at (ppn, offset); the access must
// not cross a page boundary.
func (m *Memory) Read64(ppn arch.PPN, offset uint64) uint64 {
	if offset+8 > arch.PageSize {
		panic("mem: Read64 crosses page boundary")
	}
	f := m.frame(ppn, false)
	if f == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f[offset:])
}

// Write64 stores a little-endian uint64 at (ppn, offset).
func (m *Memory) Write64(ppn arch.PPN, offset uint64, v uint64) {
	if offset+8 > arch.PageSize {
		panic("mem: Write64 crosses page boundary")
	}
	if ppn == ZeroPPN {
		panic("mem: write to the zero page")
	}
	binary.LittleEndian.PutUint64(m.frame(ppn, true)[offset:], v)
}

// ReadSpan copies len(dst) bytes starting at (ppn, offset) into dst; the
// span must not cross the page boundary. Unmaterialised frames read as
// zeroes.
func (m *Memory) ReadSpan(ppn arch.PPN, offset uint64, dst []byte) {
	if offset+uint64(len(dst)) > arch.PageSize {
		panic("mem: ReadSpan crosses page boundary")
	}
	f := m.frame(ppn, false)
	if f == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, f[offset:])
}

// WriteSpan stores src starting at (ppn, offset); the span must not cross
// the page boundary.
func (m *Memory) WriteSpan(ppn arch.PPN, offset uint64, src []byte) {
	if offset+uint64(len(src)) > arch.PageSize {
		panic("mem: WriteSpan crosses page boundary")
	}
	if ppn == ZeroPPN {
		panic("mem: write to the zero page")
	}
	copy(m.frame(ppn, true)[offset:], src)
}

// CopySpan copies n bytes from (src, srcOff) to (dst, dstOff) within main
// memory without an intermediate buffer; neither span may cross its page
// boundary. It is the segment-copy primitive of the Overlay Memory Store
// (migration, spill, refill).
func (m *Memory) CopySpan(dst arch.PPN, dstOff uint64, src arch.PPN, srcOff uint64, n int) {
	if srcOff+uint64(n) > arch.PageSize || dstOff+uint64(n) > arch.PageSize {
		panic("mem: CopySpan crosses page boundary")
	}
	if dst == ZeroPPN {
		panic("mem: write to the zero page")
	}
	sf := m.frame(src, false)
	df := m.frame(dst, true)
	if sf == nil {
		for i := range df[dstOff : dstOff+uint64(n)] {
			df[dstOff+uint64(i)] = 0
		}
		return
	}
	copy(df[dstOff:dstOff+uint64(n)], sf[srcOff:srcOff+uint64(n)])
}

// CopyPage copies the full contents of frame src to frame dst.
func (m *Memory) CopyPage(dst, src arch.PPN) {
	if dst == ZeroPPN {
		panic("mem: write to the zero page")
	}
	sf := m.frame(src, false)
	if sf == nil {
		m.frames[dst] = nil // copying a zero frame: dst reads as zero
		m.clearShared(dst)
		return
	}
	df := m.frame(dst, true)
	*df = *sf
}

// PageIsZero reports whether every byte of the frame is zero.
func (m *Memory) PageIsZero(ppn arch.PPN) bool {
	f := m.frame(ppn, false)
	if f == nil {
		return true
	}
	for _, b := range f {
		if b != 0 {
			return false
		}
	}
	return true
}

func checkLine(line int) {
	if line < 0 || line >= arch.LinesPerPage {
		panic(fmt.Sprintf("mem: line index %d out of range", line))
	}
}

func checkOffset(offset uint64) {
	if offset >= arch.PageSize {
		panic(fmt.Sprintf("mem: offset %#x out of range", offset))
	}
}
