package cache

import (
	"repro/internal/arch"
	"repro/internal/sim"
)

// Backend is what sits below the last-level cache: the memory controller
// (which resolves overlay addresses through the OMT before DRAM).
type Backend interface {
	// Fetch reads the line from main memory; done fires on completion.
	Fetch(addr arch.PhysAddr, done sim.Cont)
	// WriteBack sends a dirty line to main memory (fire and forget).
	WriteBack(addr arch.PhysAddr)
}

// MissObserver is notified of L2 demand misses; the stream prefetcher
// implements it (Table 2: "monitor L2 misses and prefetch into L3").
type MissObserver interface {
	OnMiss(addr arch.PhysAddr)
}

// LevelConfig sizes one cache level. HitLatency is the full hit latency;
// TagLatency is the time to discover a miss and forward it down.
type LevelConfig struct {
	Size       int
	Ways       int
	HitLatency sim.Cycle
	TagLatency sim.Cycle
	Policy     Policy
}

// HierarchyConfig describes the three-level hierarchy.
type HierarchyConfig struct {
	L1, L2, L3 LevelConfig
}

// DefaultHierarchyConfig returns Table 2's hierarchy: 64 KB 4-way L1
// (tag/data 1/2, parallel), 512 KB 8-way L2 (2/8, parallel), 2 MB 16-way
// L3 (10/24, serial lookup) with DRRIP.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: LevelConfig{Size: 64 << 10, Ways: 4, HitLatency: 2, TagLatency: 1, Policy: LRU},
		L2: LevelConfig{Size: 512 << 10, Ways: 8, HitLatency: 8, TagLatency: 2, Policy: LRU},
		L3: LevelConfig{Size: 2 << 20, Ways: 16, HitLatency: 34, TagLatency: 10, Policy: DRRIP},
	}
}

type mshrEntry struct {
	dones []sim.Cont
	write bool
}

// Hierarchy ties the three levels to a backend with MSHR-style merging of
// concurrent misses to the same line. Its per-access event scheduling is
// allocation-free: completions are continuations bound once at
// construction with the line address as the packed argument, and MSHR
// entries live in a slab recycled through a free list, found by line
// number through flat tables.
type Hierarchy struct {
	engine  *sim.Engine
	cfg     HierarchyConfig
	L1      *Cache
	L2      *Cache
	L3      *Cache
	backend Backend
	mshr    sim.LineTable // line → entry of an in-flight demand miss
	pfBusy  sim.LineTable // line → entry of an in-flight prefetch (+ late demand waiters)
	pf      MissObserver
	entries []mshrEntry
	free    []int32 // indices of unused entries

	completeL2Fn  sim.ArgEvent // arg = line address
	completeL3Fn  sim.ArgEvent
	completeMemFn sim.ArgEvent
	fetchFn       sim.ArgEvent
	pfDoneFn      sim.ArgEvent

	l1Hits, l1Misses     *uint64
	l2Hits, l2Misses     *uint64
	l3Hits, l3Misses     *uint64
	l1WBs, l2WBs, l3WBs  *uint64
	mshrMerges, pfMerges *uint64
	prefetches           *uint64
}

// NewHierarchy builds the hierarchy over the given backend.
func NewHierarchy(engine *sim.Engine, cfg HierarchyConfig, backend Backend) *Hierarchy {
	h := &Hierarchy{
		engine:     engine,
		cfg:        cfg,
		L1:         New("l1", cfg.L1.Size, cfg.L1.Ways, cfg.L1.Policy),
		L2:         New("l2", cfg.L2.Size, cfg.L2.Ways, cfg.L2.Policy),
		L3:         New("l3", cfg.L3.Size, cfg.L3.Ways, cfg.L3.Policy),
		backend:    backend,
		l1Hits:     engine.Stats.Counter("cache.l1.hits"),
		l1Misses:   engine.Stats.Counter("cache.l1.misses"),
		l2Hits:     engine.Stats.Counter("cache.l2.hits"),
		l2Misses:   engine.Stats.Counter("cache.l2.misses"),
		l3Hits:     engine.Stats.Counter("cache.l3.hits"),
		l3Misses:   engine.Stats.Counter("cache.l3.misses"),
		l1WBs:      engine.Stats.Counter("cache.l1.writebacks"),
		l2WBs:      engine.Stats.Counter("cache.l2.writebacks"),
		l3WBs:      engine.Stats.Counter("cache.l3.writebacks"),
		mshrMerges: engine.Stats.Counter("cache.mshr_merges"),
		pfMerges:   engine.Stats.Counter("cache.prefetch_demand_merges"),
		prefetches: engine.Stats.Counter("cache.prefetches"),
	}
	h.completeL2Fn = func(a uint64) { h.complete(arch.PhysAddr(a), 2) }
	h.completeL3Fn = func(a uint64) { h.complete(arch.PhysAddr(a), 3) }
	h.completeMemFn = func(a uint64) { h.complete(arch.PhysAddr(a), 4) }
	h.fetchFn = func(a uint64) {
		h.backend.Fetch(arch.PhysAddr(a), sim.Bind(h.completeMemFn, a))
	}
	h.pfDoneFn = func(a uint64) { h.prefetchDone(arch.PhysAddr(a)) }
	return h
}

// newEntry takes an unused entry from the slab.
func (h *Hierarchy) newEntry() int32 {
	if n := len(h.free); n > 0 {
		i := h.free[n-1]
		h.free = h.free[:n-1]
		return i
	}
	h.entries = append(h.entries, mshrEntry{})
	return int32(len(h.entries) - 1)
}

// wait merges an access into entry i: a store makes the fill dirty, and
// done joins the waiters.
func (h *Hierarchy) wait(i int32, write bool, done sim.Cont) {
	e := &h.entries[i]
	e.write = e.write || write
	if done.Valid() {
		e.dones = append(e.dones, done)
	}
}

// release runs entry i's waiters and returns the entry to the free list.
// A waiter may start a new miss, which can grow the slab, so the entry
// is indexed afresh once they have run.
func (h *Hierarchy) release(i int32) {
	for _, d := range h.entries[i].dones {
		d.Invoke()
	}
	e := &h.entries[i]
	clear(e.dones)
	e.dones = e.dones[:0]
	e.write = false
	h.free = append(h.free, i)
}

// SetPrefetcher attaches the L2-miss observer.
func (h *Hierarchy) SetPrefetcher(pf MissObserver) { h.pf = pf }

// Access performs a timed load (write=false) or store (write=true) of the
// line containing addr; done fires when the access completes at L1.
func (h *Hierarchy) Access(addr arch.PhysAddr, write bool, done func()) {
	h.AccessCont(addr, write, sim.ContOf(done))
}

// AccessCont is the continuation form of Access.
func (h *Hierarchy) AccessCont(addr arch.PhysAddr, write bool, done sim.Cont) {
	addr = addr.LineAligned()
	if h.L1.Lookup(addr, write) {
		*h.l1Hits++
		if done.Valid() {
			h.engine.ScheduleCont(h.cfg.L1.HitLatency, done)
		}
		return
	}
	*h.l1Misses++
	line := uint64(addr) >> arch.LineShift
	if i, ok := h.mshr.Get(line); ok {
		*h.mshrMerges++
		h.wait(i, write, done)
		return
	}
	// A demand access racing an in-flight prefetch rides the prefetch's
	// completion instead of issuing a second fetch. It still trains the
	// prefetcher — a late prefetch means the stream must run further
	// ahead (the feedback in "feedback-directed prefetching").
	if i, ok := h.pfBusy.Get(line); ok {
		*h.pfMerges++
		h.wait(i, write, done)
		if h.pf != nil {
			h.pf.OnMiss(addr)
		}
		return
	}
	i := h.newEntry()
	h.wait(i, write, done)
	h.mshr.Put(line, i)
	h.descend(addr)
}

func (h *Hierarchy) descend(addr arch.PhysAddr) {
	if h.L2.Lookup(addr, false) {
		*h.l2Hits++
		h.engine.ScheduleArg(h.cfg.L1.TagLatency+h.cfg.L2.HitLatency, h.completeL2Fn, uint64(addr))
		return
	}
	*h.l2Misses++
	if h.pf != nil {
		h.pf.OnMiss(addr)
	}
	if h.L3.Lookup(addr, false) {
		*h.l3Hits++
		lat := h.cfg.L1.TagLatency + h.cfg.L2.TagLatency + h.cfg.L3.HitLatency
		h.engine.ScheduleArg(lat, h.completeL3Fn, uint64(addr))
		return
	}
	*h.l3Misses++
	lat := h.cfg.L1.TagLatency + h.cfg.L2.TagLatency + h.cfg.L3.TagLatency
	h.engine.ScheduleArg(lat, h.fetchFn, uint64(addr))
}

// complete fires when data for addr arrives from the given level (2 = L2,
// 3 = L3, 4 = memory). It fills the upper levels and releases waiters.
func (h *Hierarchy) complete(addr arch.PhysAddr, fromLevel int) {
	i, ok := h.mshr.Take(uint64(addr) >> arch.LineShift)
	if fromLevel >= 4 {
		h.fill(h.L3, addr, false)
	}
	if fromLevel >= 3 {
		h.fill(h.L2, addr, false)
	}
	h.fill(h.L1, addr, ok && h.entries[i].write)
	if ok {
		h.release(i)
	}
}

// fill installs a line into one level, routing any dirty victim downward.
func (h *Hierarchy) fill(c *Cache, addr arch.PhysAddr, dirty bool) {
	ev, evicted := c.Fill(addr, dirty)
	if !evicted || !ev.Dirty {
		return
	}
	switch c {
	case h.L1:
		*h.l1WBs++
		h.fill(h.L2, ev.Addr, true)
	case h.L2:
		*h.l2WBs++
		h.fill(h.L3, ev.Addr, true)
	default:
		*h.l3WBs++
		h.backend.WriteBack(ev.Addr)
	}
}

// Prefetch brings the line into L3 only (no upper-level pollution), per
// the Table 2 prefetcher. Present or in-flight lines are skipped (it
// reports whether a new fetch was issued). Demand accesses that arrive
// while the prefetch is in flight merge onto it and are filled upward on
// completion.
func (h *Hierarchy) Prefetch(addr arch.PhysAddr) bool {
	addr = addr.LineAligned()
	if h.L3.Present(addr) || h.L2.Present(addr) || h.L1.Present(addr) {
		return false
	}
	line := uint64(addr) >> arch.LineShift
	if _, busy := h.pfBusy.Get(line); busy {
		return false
	}
	if _, demand := h.mshr.Get(line); demand {
		return false
	}
	h.pfBusy.Put(line, h.newEntry())
	*h.prefetches++
	h.backend.Fetch(addr, sim.Bind(h.pfDoneFn, uint64(addr)))
	return true
}

// prefetchDone fills a completed prefetch into L3 (and, when demand
// waiters merged onto it, upward) and releases the waiters.
func (h *Hierarchy) prefetchDone(addr arch.PhysAddr) {
	i, ok := h.pfBusy.Take(uint64(addr) >> arch.LineShift)
	h.fill(h.L3, addr, false)
	if !ok {
		return
	}
	if e := h.entries[i]; len(e.dones) > 0 {
		h.fill(h.L2, addr, false)
		h.fill(h.L1, addr, e.write)
	}
	h.release(i)
}

// Install fills the line into L1 directly without a timed fetch (used for
// the destination lines of a conventional COW page copy, which are fully
// produced by the copy engine rather than demand-fetched).
func (h *Hierarchy) Install(addr arch.PhysAddr, dirty bool) {
	h.fill(h.L1, addr.LineAligned(), dirty)
}

// Present reports whether any level holds the line.
func (h *Hierarchy) Present(addr arch.PhysAddr) bool {
	addr = addr.LineAligned()
	return h.L1.Present(addr) || h.L2.Present(addr) || h.L3.Present(addr)
}

// Retag renames a line (overlaying-write step 1, §4.3.3) in every level
// that holds it; the data block stays put, only tags change. It returns
// whether any level held the line.
func (h *Hierarchy) Retag(oldAddr, newAddr arch.PhysAddr) bool {
	oldAddr, newAddr = oldAddr.LineAligned(), newAddr.LineAligned()
	any := false
	for _, c := range []*Cache{h.L1, h.L2, h.L3} {
		moved, ev, evicted := c.Retag(oldAddr, newAddr)
		any = any || moved
		if evicted && ev.Dirty {
			switch c {
			case h.L1:
				h.fill(h.L2, ev.Addr, true)
			case h.L2:
				h.fill(h.L3, ev.Addr, true)
			default:
				h.backend.WriteBack(ev.Addr)
			}
		}
	}
	return any
}

// Invalidate drops the line from every level, reporting whether any copy
// was dirty (promotion actions use this; functional data lives in mem).
func (h *Hierarchy) Invalidate(addr arch.PhysAddr) (present, dirty bool) {
	addr = addr.LineAligned()
	for _, c := range []*Cache{h.L1, h.L2, h.L3} {
		p, d := c.Invalidate(addr)
		present = present || p
		dirty = dirty || d
	}
	return present, dirty
}

// OutstandingMisses reports the number of in-flight demand misses.
func (h *Hierarchy) OutstandingMisses() int { return h.mshr.Len() }
