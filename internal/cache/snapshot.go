package cache

import (
	"fmt"
	"slices"
)

// Snapshot support: a Cache's tag and replacement state, and the whole
// Hierarchy, can be captured at a quiescence point (no in-flight misses
// or prefetches) and restored onto a freshly constructed hierarchy of
// the same configuration. The stats-registry counters are restored
// separately through sim.Stats; Cache.Hits/Misses are plain struct
// fields and so are captured here.

// Snapshot is an immutable capture of one cache level.
type Snapshot struct{ c Cache }

// Snapshot captures the cache's tag array, replacement state and
// hit/miss totals.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{c: *c}
	s.c.tags = slices.Clone(c.tags)
	s.c.stamp = slices.Clone(c.stamp)
	s.c.rrpv = slices.Clone(c.rrpv)
	return s
}

// Restore loads the captured state into this cache, which must have the
// same geometry and replacement policy.
func (c *Cache) Restore(s *Snapshot) {
	if s.c.sets != c.sets || s.c.ways != c.ways || s.c.policy != c.policy {
		panic(fmt.Sprintf("cache %s: restore geometry or policy mismatch", c.Name))
	}
	copy(c.tags, s.c.tags)
	copy(c.stamp, s.c.stamp)
	copy(c.rrpv, s.c.rrpv)
	c.clock, c.psel, c.fillSeq = s.c.clock, s.c.psel, s.c.fillSeq
	c.Hits, c.Misses = s.c.Hits, s.c.Misses
}

// HierarchySnapshot captures all three levels of a quiescent hierarchy.
type HierarchySnapshot struct {
	L1, L2, L3 *Snapshot
}

// Snapshot captures the hierarchy. It panics if misses or prefetches
// are still in flight — snapshots are only taken after the engine's
// event queue has drained, at which point the MSHRs are empty.
func (h *Hierarchy) Snapshot() *HierarchySnapshot {
	if h.mshr.Len() != 0 || h.pfBusy.Len() != 0 {
		panic("cache: hierarchy snapshot with in-flight misses")
	}
	return &HierarchySnapshot{L1: h.L1.Snapshot(), L2: h.L2.Snapshot(), L3: h.L3.Snapshot()}
}

// Restore loads the captured levels into this hierarchy.
func (h *Hierarchy) Restore(s *HierarchySnapshot) {
	h.L1.Restore(s.L1)
	h.L2.Restore(s.L2)
	h.L3.Restore(s.L3)
}
