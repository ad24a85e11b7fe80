// Package oms implements the Overlay Memory Store of §4.4: the region of
// main memory where overlays are stored compactly. Overlays live in
// segments of five fixed sizes (256 B – 4 KB). Every sub-4 KB segment
// begins with a metadata cache line holding 64 five-bit slot pointers and
// a 32-bit free-slot vector (Figure 7); a 4 KB segment stores each line at
// its natural page offset and needs no metadata. Free segments are kept on
// per-size free lists; when a size class runs dry the store splits a
// segment of the next size up, and when it runs out of 4 KB segments it
// asks the OS for more frames.
//
// The allocator is organised like a buffer manager (LeanStore/Umbra
// style) rather than a map-backed bookkeeper: every frame the OS grants
// gets a dense slot, segments are identified by their 256 B unit index
// within the slot table, and the per-class free lists are intrusive
// doubly-linked lists threaded through that table. Alloc, Free, class
// lookup and line resolution are therefore O(1) array operations with
// zero heap allocations — no maps anywhere on the hot path.
//
// When a frame capacity is configured (SetCapacity), the store also runs
// a cooling-FIFO second-chance eviction queue over its live segments and
// a spill tier — a modeled slow store with its own latency accounting —
// so the live overlay working set can exceed the frames the store is
// allowed to hold in modeled DRAM. Reference holders keep pointer-
// swizzled handles: a resident segment is referenced by its physical
// base address, a spilled one by a cold reference (arch.ColdBit) that
// Resolve turns back into a direct handle by refilling the segment.
//
// Segment metadata is stored functionally in main memory (the metadata
// line really occupies the segment's first 64 bytes), exactly where the
// OMT cache expects to find and cache it.
package oms

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// NumClasses is the number of segment size classes.
const NumClasses = 5

// Unit geometry: the allocator tracks frames at the granularity of the
// smallest segment class (256 B), sixteen units per 4 KB frame.
const (
	unitShift     = 8
	unitBytes     = 1 << unitShift
	unitsPerFrame = arch.PageSize / unitBytes
)

// Default spill-tier latency model: a refill pays a fixed slow-store
// access penalty plus a per-line transfer cost.
const (
	DefaultSpillLatency     sim.Cycle = 2000
	DefaultSpillLineLatency sim.Cycle = 40
)

// ClassBytes returns the byte size of a segment of the given class
// (class 0 = 256 B … class 4 = 4 KB).
func ClassBytes(class int) int { return 256 << uint(class) }

// ClassLines returns the number of cache lines a segment spans.
func ClassLines(class int) int { return ClassBytes(class) / arch.LineSize }

// ClassSlots returns how many overlay cache lines a segment can hold; all
// classes but the largest sacrifice one line to metadata.
func ClassSlots(class int) int {
	if class == NumClasses-1 {
		return arch.LinesPerPage
	}
	return ClassLines(class) - 1
}

// ClassFor returns the smallest class able to hold n overlay lines.
func ClassFor(n int) int {
	for c := 0; c < NumClasses; c++ {
		if ClassSlots(c) >= n {
			return c
		}
	}
	panic(fmt.Sprintf("oms: no segment class holds %d lines", n))
}

// unit is one 256 B unit of a store-owned frame: free-list links, cooling-
// queue links, and the segment classes based at this unit. liveClass and
// freeClass are -1 unless a live/free segment starts exactly here, so a
// class lookup is a single array load.
type unit struct {
	next, prev         int32 // intrusive free-list links (freeClass >= 0)
	coolNext, coolPrev int32 // cooling-queue links (inCool)
	owner              uint64
	liveClass          int8
	freeClass          int8
	inCool             bool
	refBit             bool
}

// spillRec is one segment parked in the spill tier.
type spillRec struct {
	data  []byte
	owner uint64
	class int8 // -1 when the record is free
}

// Store is the Overlay Memory Store manager. It is owned by the memory
// controller and touched only on cache-hierarchy misses and dirty
// write-backs (§3.3), never on the critical path of cache hits.
type Store struct {
	memory *mem.Memory
	stats  *sim.Stats
	trace  *sim.TraceLog    // nil = tracing disabled
	now    func() sim.Cycle // clock for trace timestamps

	// Flat pooled allocation state. frameSlot maps a PPN to its dense
	// slot (+1; 0 = frame not owned by the store), frames is the inverse
	// in grant order, and units carries all per-unit bookkeeping.
	frameSlot []int32
	frames    []arch.PPN
	units     []unit

	freeHead [NumClasses]int32
	freeTail [NumClasses]int32

	owned    int // frames handed to the store by the OS
	inUse    int // bytes of resident live segments
	liveSegs int

	// Cooling/eviction/spill state; dormant unless SetCapacity was called
	// with a positive frame budget (capacity 0 = unlimited, the paper's
	// original behaviour, bit-identical to the pre-buffer-manager store).
	capacity     int
	spill        bool
	spillLat     sim.Cycle
	spillLineLat sim.Cycle

	coolHead, coolTail int32
	coolLen            int
	pinned             int32 // unit pinned against eviction (mid-migration)
	evictHook          func(owner uint64, cold arch.PhysAddr)

	spillRecs    []spillRec
	spillFree    []int32
	spilledBytes int
	spilledSegs  int

	zeroLine [arch.LineSize]byte
	sink     uint64 // counter target when stats == nil

	// Counter handles. The legacy counters bind lazily at their historic
	// first-use points so the registered metric set of a run is unchanged;
	// the capacity-mode counters bind eagerly in SetCapacity so they are
	// exported (as zeros) whenever the eviction machinery is armed.
	cFramesGranted *uint64
	cAllocs        *uint64
	cSplits        *uint64
	cCoalesces     *uint64
	cFrees         *uint64
	cMigrations    *uint64

	cEvictions     *uint64
	cSpills        *uint64
	cRefills       *uint64
	cSecondChance  *uint64
	cOverruns      *uint64
	cResidentBytes *uint64
	cSpilledBytes  *uint64
	cSpillPenalty  *uint64
}

// New creates a store drawing frames from memory. The OS proactively
// hands the controller initialFrames 4 KB pages at startup (§4.4.3).
func New(memory *mem.Memory, stats *sim.Stats, initialFrames int) (*Store, error) {
	s := &Store{
		memory:    memory,
		stats:     stats,
		frameSlot: make([]int32, memory.TotalPages()),
		pinned:    -1,
		coolHead:  -1,
		coolTail:  -1,
	}
	for c := range s.freeHead {
		s.freeHead[c], s.freeTail[c] = -1, -1
	}
	if err := s.addFrames(initialFrames); err != nil {
		return nil, err
	}
	return s, nil
}

// counter binds a registry counter, or a local sink when stats are absent.
func (s *Store) counter(name string) *uint64 {
	if s.stats == nil {
		return &s.sink
	}
	return s.stats.Counter(name)
}

// AttachTrace wires the store to an event trace; `now` supplies the
// timestamp for emitted events (segment alloc/free/spill/refill). The
// store has no engine reference of its own, so the owner passes the clock
// in.
func (s *Store) AttachTrace(t *sim.TraceLog, now func() sim.Cycle) {
	s.trace = t
	s.now = now
}

// emitSegEvent is the single nil-guarded choke point for segment trace
// events: when tracing is disabled the call costs one branch and builds
// nothing — no TraceArg slice, no closure.
func (s *Store) emitSegEvent(name string, base arch.PhysAddr, class int) {
	if s.trace == nil {
		return
	}
	s.trace.Emit(s.now(), "oms", name,
		sim.TraceArg{Key: "base", Val: uint64(base)},
		sim.TraceArg{Key: "class", Val: uint64(class)},
		sim.TraceArg{Key: "bytes", Val: uint64(ClassBytes(class))})
}

// SetCapacity arms the cooling/eviction machinery: the store may own at
// most `frames` 4 KB frames; once the budget is reached, allocations that
// would otherwise grow the store evict cooling segments instead. With
// spill=true evicted segments move to the spill tier and stay live behind
// cold references; with spill=false the capacity only caps the growth
// doubling (nothing can be evicted, so the budget is a soft target).
// frames <= 0 disables the machinery — the store behaves exactly like the
// unlimited original. Configure before the first allocation.
func (s *Store) SetCapacity(frames int, spill bool) {
	if frames <= 0 {
		s.capacity, s.spill = 0, false
		return
	}
	s.capacity = frames
	s.spill = spill
	if s.spillLat == 0 {
		s.spillLat, s.spillLineLat = DefaultSpillLatency, DefaultSpillLineLatency
	}
	s.bindCapacityCounters()
	s.syncGauges()
}

// SetSpillLatency overrides the modeled slow-store cost of a refill: a
// fixed penalty plus a per-line transfer cost.
func (s *Store) SetSpillLatency(fixed, perLine sim.Cycle) {
	s.spillLat, s.spillLineLat = fixed, perLine
}

// SetEvictHook registers the unswizzle callback: when a segment is
// spilled, the hook receives the owner token (see SetOwner) and the cold
// reference the owner must store in place of its direct handle.
func (s *Store) SetEvictHook(fn func(owner uint64, cold arch.PhysAddr)) { s.evictHook = fn }

// SetOwner associates a live resident segment with the opaque token of
// its reference holder (the overlay page number for OMT-held segments, a
// harness handle otherwise). Only owned segments are eligible for
// eviction — the spill path must be able to unswizzle the owner's
// reference through the evict hook. A no-op when no capacity is set.
func (s *Store) SetOwner(base arch.PhysAddr, owner uint64) {
	if s.capacity == 0 {
		return
	}
	u := s.unitOf(base)
	if u < 0 || s.units[u].liveClass < 0 {
		panic(fmt.Sprintf("oms: SetOwner on dead segment %#x", uint64(base)))
	}
	s.units[u].owner = owner
}

func (s *Store) bindCapacityCounters() {
	if s.cEvictions != nil {
		return
	}
	s.cEvictions = s.counter("oms.evictions")
	s.cSpills = s.counter("oms.spills")
	s.cRefills = s.counter("oms.refills")
	s.cSecondChance = s.counter("oms.second_chances")
	s.cOverruns = s.counter("oms.capacity_overruns")
	s.cResidentBytes = s.counter("oms.resident_bytes")
	s.cSpilledBytes = s.counter("oms.spilled_bytes")
	s.cSpillPenalty = s.counter("oms.spill_penalty_cycles")
}

// syncGauges publishes the residency gauges (capacity mode only).
func (s *Store) syncGauges() {
	if s.cResidentBytes != nil {
		*s.cResidentBytes = uint64(s.inUse)
		*s.cSpilledBytes = uint64(s.spilledBytes)
	}
}

// ---- Frame and unit addressing ----

// unitOf maps an address inside a store-owned frame to its unit index,
// or -1 when the frame is not owned by the store.
func (s *Store) unitOf(addr arch.PhysAddr) int32 {
	page := addr.Page()
	if page >= uint64(len(s.frameSlot)) {
		return -1
	}
	slot := s.frameSlot[page]
	if slot == 0 {
		return -1
	}
	return (slot-1)*unitsPerFrame + int32((uint64(addr)&arch.PageMask)>>unitShift)
}

// baseOf is the inverse of unitOf for segment bases.
func (s *Store) baseOf(u int32) arch.PhysAddr {
	return arch.PhysAddrOf(s.frames[u/unitsPerFrame], uint64(u%unitsPerFrame)<<unitShift)
}

func (s *Store) addFrames(n int) error {
	for i := 0; i < n; i++ {
		ppn, err := s.memory.Alloc()
		if err != nil {
			return fmt.Errorf("oms: growing store: %w", err)
		}
		slot := int32(len(s.frames))
		s.frames = append(s.frames, ppn)
		s.frameSlot[ppn] = slot + 1
		for j := 0; j < unitsPerFrame; j++ {
			s.units = append(s.units, unit{
				next: -1, prev: -1, coolNext: -1, coolPrev: -1,
				liveClass: -1, freeClass: -1,
			})
		}
		s.pushFree(slot*unitsPerFrame, NumClasses-1)
		s.owned++
	}
	if s.stats != nil {
		if s.cFramesGranted == nil {
			s.cFramesGranted = s.counter("oms.frames_granted")
		}
		*s.cFramesGranted += uint64(n)
	}
	return nil
}

// ---- Intrusive per-class free lists (tail push, tail pop) ----
//
// The list order reproduces the original slice free lists exactly:
// pushFree appends at the tail, allocation pops the tail, and buddy
// coalescing unlinks from the middle preserving relative order — so the
// sequence of addresses the allocator hands out is bit-identical to the
// map/slice implementation this replaced (order is timing-relevant).

func (s *Store) pushFree(u int32, class int) {
	un := &s.units[u]
	un.freeClass = int8(class)
	un.next = -1
	un.prev = s.freeTail[class]
	if un.prev >= 0 {
		s.units[un.prev].next = u
	} else {
		s.freeHead[class] = u
	}
	s.freeTail[class] = u
}

func (s *Store) unlinkFree(u int32, class int) {
	un := &s.units[u]
	if un.freeClass != int8(class) {
		panic(fmt.Sprintf("oms: free segment %#x missing from class %d list",
			uint64(s.baseOf(u)), class))
	}
	if un.prev >= 0 {
		s.units[un.prev].next = un.next
	} else {
		s.freeHead[class] = un.next
	}
	if un.next >= 0 {
		s.units[un.next].prev = un.prev
	} else {
		s.freeTail[class] = un.prev
	}
	un.next, un.prev = -1, -1
	un.freeClass = -1
}

func (s *Store) popFree(class int) int32 {
	u := s.freeTail[class]
	s.unlinkFree(u, class)
	return u
}

// ---- Cooling FIFO (second-chance clock over live segments) ----

func (s *Store) coolEnqueue(u int32) {
	un := &s.units[u]
	un.inCool = true
	un.coolNext = -1
	un.coolPrev = s.coolTail
	if un.coolPrev >= 0 {
		s.units[un.coolPrev].coolNext = u
	} else {
		s.coolHead = u
	}
	s.coolTail = u
	s.coolLen++
}

func (s *Store) coolDequeue(u int32) {
	un := &s.units[u]
	if !un.inCool {
		return
	}
	if un.coolPrev >= 0 {
		s.units[un.coolPrev].coolNext = un.coolNext
	} else {
		s.coolHead = un.coolNext
	}
	if un.coolNext >= 0 {
		s.units[un.coolNext].coolPrev = un.coolPrev
	} else {
		s.coolTail = un.coolPrev
	}
	un.coolNext, un.coolPrev = -1, -1
	un.inCool = false
	s.coolLen--
}

// coolRotate moves the queue head to the tail (second chance / skip).
func (s *Store) coolRotate(u int32) {
	if s.coolHead == s.coolTail {
		return
	}
	s.coolDequeue(u)
	s.coolEnqueue(u)
}

// touch marks a segment referenced for the second-chance sweep.
func (s *Store) touch(u int32) {
	if s.capacity != 0 {
		s.units[u].refBit = true
	}
}

// BytesInUse returns the bytes occupied by live segments — resident and
// spilled, metadata lines and internal slack included (this is the
// store's true footprint).
func (s *Store) BytesInUse() int { return s.inUse + s.spilledBytes }

// ResidentBytes returns the bytes of live segments resident in modeled
// DRAM (excluding the spill tier).
func (s *Store) ResidentBytes() int { return s.inUse }

// SpilledBytes returns the bytes of live segments parked in the spill tier.
func (s *Store) SpilledBytes() int { return s.spilledBytes }

// FramesOwned returns the number of 4 KB frames the OS has granted.
func (s *Store) FramesOwned() int { return s.owned }

// LiveSegments returns the number of allocated resident segments.
func (s *Store) LiveSegments() int { return s.liveSegs }

// SpilledSegments returns the number of live segments in the spill tier.
func (s *Store) SpilledSegments() int { return s.spilledSegs }

// CapacityFrames returns the configured frame budget (0 = unlimited).
func (s *Store) CapacityFrames() int { return s.capacity }

// AllocSegment carves out a free segment of the class, splitting larger
// segments, evicting cooling segments at capacity, or requesting OS
// frames as needed.
func (s *Store) AllocSegment(class int) (arch.PhysAddr, error) {
	if class < 0 || class >= NumClasses {
		panic(fmt.Sprintf("oms: bad class %d", class))
	}
	if err := s.refill(class); err != nil {
		return 0, err
	}
	u := s.popFree(class)
	un := &s.units[u]
	un.liveClass = int8(class)
	un.owner = 0
	s.liveSegs++
	s.inUse += ClassBytes(class)
	base := s.baseOf(u)
	if s.cAllocs == nil {
		s.cAllocs = s.counter("oms.segment_allocs")
	}
	*s.cAllocs++
	s.emitSegEvent("segment-alloc", base, class)
	if s.capacity != 0 {
		un.refBit = true
		s.coolEnqueue(u)
		s.syncGauges()
	}
	if class < NumClasses-1 {
		s.initMetadata(base, class)
	}
	return base, nil
}

// refill guarantees the class's free list is non-empty.
func (s *Store) refill(class int) error {
	if s.freeTail[class] >= 0 {
		return nil
	}
	if class == NumClasses-1 {
		return s.growTop()
	}
	if err := s.refill(class + 1); err != nil {
		return err
	}
	big := s.popFree(class + 1)
	s.pushFree(big, class)
	s.pushFree(big+(1<<class), class) // buddy: ClassBytes(class) bytes above
	if s.cSplits == nil {
		s.cSplits = s.counter("oms.segment_splits")
	}
	*s.cSplits++
	return nil
}

// growTop supplies a fresh top-class segment: within the frame budget the
// store doubles (floor of one frame, clamped to the budget); at the
// budget it evicts cooling segments to the spill tier instead, and only
// grows past the budget as a last resort when nothing is evictable.
func (s *Store) growTop() error {
	if s.capacity > 0 && s.owned >= s.capacity {
		if s.evictForSpace() {
			return nil
		}
		*s.cOverruns++
		return s.addFrames(1)
	}
	grow := s.owned
	if grow == 0 {
		grow = 1
	}
	if s.capacity > 0 && s.owned+grow > s.capacity {
		grow = s.capacity - s.owned
	}
	return s.addFrames(grow)
}

// evictForSpace runs the cooling clock until a top-class free segment
// exists: the queue head is spilled unless its reference bit grants a
// second chance; pinned and unowned segments rotate untouched. Reports
// whether a 4 KB segment was freed.
func (s *Store) evictForSpace() bool {
	if !s.spill || s.evictHook == nil {
		return false
	}
	for budget := 2*s.coolLen + 2; budget > 0 && s.coolHead >= 0; budget-- {
		u := s.coolHead
		un := &s.units[u]
		if u == s.pinned || un.owner == 0 {
			s.coolRotate(u)
			continue
		}
		if un.refBit {
			un.refBit = false
			s.coolRotate(u)
			*s.cSecondChance++
			continue
		}
		s.spillSegment(u)
		if s.freeTail[NumClasses-1] >= 0 {
			return true
		}
	}
	return s.freeTail[NumClasses-1] >= 0
}

// coldRef encodes a spill-tier reference: the cold tag, the record id and
// the segment class.
func coldRef(id int32, class int) arch.PhysAddr {
	return arch.PhysAddr(arch.ColdBit) | arch.PhysAddr(id)<<3 | arch.PhysAddr(class)
}

func decodeCold(ref arch.PhysAddr) (id int32, class int) {
	return int32((uint64(ref) &^ arch.ColdBit) >> 3), int(uint64(ref) & 7)
}

// spillSegment moves a live resident segment to the spill tier: its bytes
// (metadata line included — slot pointers are base-relative, so the image
// is position-independent) are copied out, its frames' units return to
// the free lists with buddy coalescing, and the owner's reference is
// unswizzled to a cold reference through the evict hook.
func (s *Store) spillSegment(u int32) {
	un := &s.units[u]
	class := int(un.liveClass)
	owner := un.owner
	base := s.baseOf(u)

	var id int32
	if n := len(s.spillFree); n > 0 {
		id = s.spillFree[n-1]
		s.spillFree = s.spillFree[:n-1]
	} else {
		id = int32(len(s.spillRecs))
		s.spillRecs = append(s.spillRecs, spillRec{class: -1})
	}
	rec := &s.spillRecs[id]
	n := ClassBytes(class)
	if cap(rec.data) < n {
		rec.data = make([]byte, n)
	} else {
		rec.data = rec.data[:n]
	}
	s.memory.ReadSpan(arch.PPN(base.Page()), uint64(base)&arch.PageMask, rec.data)
	rec.owner, rec.class = owner, int8(class)

	s.emitSegEvent("segment-spill", base, class)
	s.coolDequeue(u)
	s.releaseSegment(u, class)
	s.spilledBytes += n
	s.spilledSegs++
	*s.cEvictions++
	*s.cSpills++
	s.syncGauges()
	s.evictHook(owner, coldRef(id, class))
}

// Resolve swizzles a segment reference. A resident handle is returned
// unchanged (touching the segment's reference bit); a cold reference
// triggers a refill — a fresh segment is allocated (possibly evicting
// others), the spilled image is copied back, and the caller must store
// the returned direct handle in place of the cold one. The returned
// penalty is the modeled slow-store latency of the refill (0 when the
// handle was already resident).
func (s *Store) Resolve(ref arch.PhysAddr) (arch.PhysAddr, sim.Cycle, error) {
	if !ref.IsCold() {
		if u := s.unitOf(ref); u >= 0 && s.units[u].liveClass >= 0 {
			s.touch(u)
		}
		return ref, 0, nil
	}
	id, class := decodeCold(ref)
	if int(id) >= len(s.spillRecs) || s.spillRecs[id].class != int8(class) {
		return 0, 0, fmt.Errorf("oms: resolve of unknown cold reference %#x", uint64(ref))
	}
	base, err := s.AllocSegment(class)
	if err != nil {
		return 0, 0, err
	}
	rec := &s.spillRecs[id]
	s.memory.WriteSpan(arch.PPN(base.Page()), uint64(base)&arch.PageMask, rec.data)
	if rec.owner != 0 {
		s.SetOwner(base, rec.owner)
	}
	s.spilledBytes -= len(rec.data)
	s.spilledSegs--
	rec.class, rec.owner = -1, 0
	rec.data = rec.data[:0]
	s.spillFree = append(s.spillFree, id)
	penalty := s.spillLat + s.spillLineLat*sim.Cycle(ClassLines(class))
	*s.cRefills++
	*s.cSpillPenalty += uint64(penalty)
	s.emitSegEvent("segment-refill", base, class)
	s.syncGauges()
	return base, penalty, nil
}

// FreeSegment returns a segment to its class free list, coalescing with
// its buddy (the equal-sized neighbour within the parent segment) into
// larger segments whenever both halves are free — the store's defence
// against long-run fragmentation. Cold references free the spill-tier
// record instead.
func (s *Store) FreeSegment(base arch.PhysAddr) {
	if base.IsCold() {
		s.dropSpilled(base)
		return
	}
	u := s.unitOf(base)
	if u < 0 || s.units[u].liveClass < 0 {
		panic(fmt.Sprintf("oms: freeing unknown segment %#x", uint64(base)))
	}
	class := int(s.units[u].liveClass)
	s.emitSegEvent("segment-free", base, class)
	if s.capacity != 0 {
		s.coolDequeue(u)
	}
	s.releaseSegment(u, class)
	if s.cFrees == nil {
		s.cFrees = s.counter("oms.segment_frees")
	}
	*s.cFrees++
	if s.capacity != 0 {
		s.syncGauges()
	}
}

// releaseSegment returns a live segment's units to the free lists with
// buddy coalescing. Shared by FreeSegment and the spill path.
func (s *Store) releaseSegment(u int32, class int) {
	un := &s.units[u]
	un.liveClass = -1
	un.owner = 0
	un.refBit = false
	s.liveSegs--
	s.inUse -= ClassBytes(class)
	for class < NumClasses-1 {
		buddy := u ^ (1 << class)
		if s.units[buddy].freeClass != int8(class) {
			break
		}
		s.unlinkFree(buddy, class)
		if buddy < u {
			u = buddy
		}
		class++
		if s.cCoalesces == nil {
			s.cCoalesces = s.counter("oms.segment_coalesces")
		}
		*s.cCoalesces++
	}
	s.pushFree(u, class)
}

// dropSpilled frees a spill-tier segment through its cold reference.
func (s *Store) dropSpilled(ref arch.PhysAddr) {
	id, class := decodeCold(ref)
	if int(id) >= len(s.spillRecs) || s.spillRecs[id].class != int8(class) {
		panic(fmt.Sprintf("oms: freeing unknown cold reference %#x", uint64(ref)))
	}
	rec := &s.spillRecs[id]
	s.spilledBytes -= len(rec.data)
	s.spilledSegs--
	rec.class, rec.owner = -1, 0
	rec.data = rec.data[:0]
	s.spillFree = append(s.spillFree, id)
	if s.cFrees == nil {
		s.cFrees = s.counter("oms.segment_frees")
	}
	*s.cFrees++
	s.syncGauges()
}

// SegmentClass returns the class of a live segment — resident (by base
// address) or spilled (by cold reference).
func (s *Store) SegmentClass(base arch.PhysAddr) (int, bool) {
	if base.IsCold() {
		id, class := decodeCold(base)
		if int(id) < len(s.spillRecs) && s.spillRecs[id].class == int8(class) {
			return class, true
		}
		return 0, false
	}
	if uint64(base)&(unitBytes-1) != 0 {
		return 0, false
	}
	u := s.unitOf(base)
	if u < 0 {
		return 0, false
	}
	if c := s.units[u].liveClass; c >= 0 {
		return int(c), true
	}
	return 0, false
}

// ---- Segment metadata (Figure 7) ----
//
// Byte layout of the metadata line (first 64 B of sub-4 KB segments):
//   bytes 0..39  : 64 slot pointers, 5 bits each, little-endian bit order.
//                  Pointer value 0 = line not present; k = data in slot k.
//   bytes 40..43 : 32-bit free-slot vector; bit (k-1) set = slot k free.

func (s *Store) metaPPN(base arch.PhysAddr) (arch.PPN, uint64) {
	return arch.PPN(base.Page()), uint64(base) & arch.PageMask
}

// readMetaBits loads the width-bit field at bitOff (width <= 32) with
// one word read: every field of the line sits inside the 8-byte word
// starting at its first byte (a pointer spans at most two bytes, the
// free vector five).
func (s *Store) readMetaBits(base arch.PhysAddr, bitOff, width uint) uint32 {
	ppn, off := s.metaPPN(base)
	w := s.memory.Read64(ppn, off+uint64(bitOff/8))
	return uint32(w >> (bitOff % 8) & (1<<width - 1))
}

// writeMetaBits stores the field with a read-modify-write of the same
// word. The write goes through mem, so copy-on-write and frame
// materialisation behave exactly as for a byte store.
func (s *Store) writeMetaBits(base arch.PhysAddr, bitOff, width uint, v uint32) {
	ppn, off := s.metaPPN(base)
	byteOff := off + uint64(bitOff/8)
	mask := uint64(1<<width-1) << (bitOff % 8)
	w := s.memory.Read64(ppn, byteOff)
	s.memory.Write64(ppn, byteOff, w&^mask|uint64(v)<<(bitOff%8)&mask)
}

func (s *Store) slotPointer(base arch.PhysAddr, line int) int {
	return int(s.readMetaBits(base, uint(line)*5, 5))
}

func (s *Store) setSlotPointer(base arch.PhysAddr, line, slot int) {
	s.writeMetaBits(base, uint(line)*5, 5, uint32(slot))
}

func (s *Store) freeVector(base arch.PhysAddr) uint32 {
	return s.readMetaBits(base, 320, 32)
}

func (s *Store) setFreeVector(base arch.PhysAddr, v uint32) {
	s.writeMetaBits(base, 320, 32, v)
}

// initMetadata marks every data slot free and all pointers invalid.
func (s *Store) initMetadata(base arch.PhysAddr, class int) {
	ppn, off := s.metaPPN(base)
	s.memory.WriteSpan(ppn, off, s.zeroLine[:])
	s.setFreeVector(base, uint32(1)<<uint(ClassSlots(class))-1)
}

// liveClassOf returns the class of the live segment at base, panicking
// with the caller's context on a dead segment.
func (s *Store) liveClassOf(base arch.PhysAddr, op string) int {
	u := s.unitOf(base)
	if u < 0 || s.units[u].liveClass < 0 {
		panic(fmt.Sprintf("oms: %s on dead segment %#x", op, uint64(base)))
	}
	s.touch(u)
	return int(s.units[u].liveClass)
}

// LocateLine returns the main-memory address of the overlay cache line
// for page line `line`, or ok=false if the segment does not hold it.
func (s *Store) LocateLine(base arch.PhysAddr, line int) (arch.PhysAddr, bool) {
	class := s.liveClassOf(base, "LocateLine")
	if class == NumClasses-1 {
		return base + arch.PhysAddr(line*arch.LineSize), true
	}
	slot := s.slotPointer(base, line)
	if slot == 0 {
		return 0, false
	}
	return base + arch.PhysAddr(slot*arch.LineSize), true
}

// InsertLine claims a slot for page line `line` and returns its address.
// full=true means the segment has no free slot (the caller must migrate).
// Inserting an already-present line returns its existing slot.
func (s *Store) InsertLine(base arch.PhysAddr, line int) (addr arch.PhysAddr, full bool) {
	class := s.liveClassOf(base, "InsertLine")
	if class == NumClasses-1 {
		return base + arch.PhysAddr(line*arch.LineSize), false
	}
	if slot := s.slotPointer(base, line); slot != 0 {
		return base + arch.PhysAddr(slot*arch.LineSize), false
	}
	fv := s.freeVector(base)
	if fv == 0 {
		return 0, true
	}
	slot := bits.TrailingZeros32(fv) + 1
	s.setFreeVector(base, fv&^(1<<uint(slot-1)))
	s.setSlotPointer(base, line, slot)
	return base + arch.PhysAddr(slot*arch.LineSize), false
}

// RemoveLine releases the slot held by page line `line` (no-op if absent).
func (s *Store) RemoveLine(base arch.PhysAddr, line int) {
	class := s.liveClassOf(base, "RemoveLine")
	if class == NumClasses-1 {
		return
	}
	slot := s.slotPointer(base, line)
	if slot == 0 {
		return
	}
	s.setSlotPointer(base, line, 0)
	s.setFreeVector(base, s.freeVector(base)|1<<uint(slot-1))
}

// Migrate moves an overlay into a segment of the next size up, copying
// every present line (per obits) and freeing the old segment. The source
// is pinned against eviction for the duration; the new segment inherits
// the owner. It returns the new base.
func (s *Store) Migrate(base arch.PhysAddr, obits arch.OBitVector) (arch.PhysAddr, error) {
	srcUnit := s.unitOf(base)
	if srcUnit < 0 || s.units[srcUnit].liveClass < 0 {
		panic(fmt.Sprintf("oms: Migrate on dead segment %#x", uint64(base)))
	}
	oldClass := int(s.units[srcUnit].liveClass)
	if oldClass >= NumClasses-1 {
		panic("oms: migrating a 4KB segment")
	}
	owner := s.units[srcUnit].owner
	prevPin := s.pinned
	s.pinned = srcUnit
	newBase, err := s.AllocSegment(oldClass + 1)
	s.pinned = prevPin
	if err != nil {
		return 0, err
	}
	for _, line := range obits.Lines() {
		src, ok := s.LocateLine(base, line)
		if !ok {
			continue // line tracked in OBitVector but not yet written back
		}
		dst, full := s.InsertLine(newBase, line)
		if full {
			panic("oms: migration target full")
		}
		s.copyLine(dst, src)
	}
	s.FreeSegment(base)
	if owner != 0 {
		s.SetOwner(newBase, owner)
	}
	if s.cMigrations == nil {
		s.cMigrations = s.counter("oms.migrations")
	}
	*s.cMigrations++
	return newBase, nil
}

func (s *Store) copyLine(dst, src arch.PhysAddr) {
	s.memory.CopySpan(
		arch.PPN(dst.Page()), uint64(dst)&arch.PageMask,
		arch.PPN(src.Page()), uint64(src)&arch.PageMask,
		arch.LineSize)
}

// ReadLineData copies the 64 data bytes at addr into dst.
func (s *Store) ReadLineData(addr arch.PhysAddr, dst []byte) {
	ppn, off := s.metaPPN(addr)
	s.memory.ReadSpan(ppn, off, dst[:arch.LineSize])
}

// WriteLineData stores 64 bytes at addr.
func (s *Store) WriteLineData(addr arch.PhysAddr, src []byte) {
	ppn, off := s.metaPPN(addr)
	s.memory.WriteSpan(ppn, off, src[:arch.LineSize])
}

// FreeSlots returns how many more lines the segment can accept.
func (s *Store) FreeSlots(base arch.PhysAddr) int {
	class := s.liveClassOf(base, "FreeSlots")
	if class == NumClasses-1 {
		return arch.LinesPerPage // offsets are never contended
	}
	return bits.OnesCount32(s.freeVector(base))
}
