package cache

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// stubBackend completes every fetch after a fixed latency and drops
// write-backs, so the benchmark times the hierarchy alone.
type stubBackend struct{ engine *sim.Engine }

func (b stubBackend) Fetch(_ arch.PhysAddr, done sim.Cont) { b.engine.ScheduleCont(200, done) }
func (stubBackend) WriteBack(arch.PhysAddr)                {}

// BenchmarkHierarchyAccess drives the hierarchy with a mixed stream per
// op: a demand miss to a fresh line, a second access merging onto its
// MSHR, a prefetch of the next line, a demand access merging onto that
// prefetch, and a hit in a small hot set. The engine drains every eight
// ops. CI gates on this benchmark reporting 0 allocs/op: MSHR entries,
// their waiter lists and the line tables must all be recycled.
func BenchmarkHierarchyAccess(b *testing.B) {
	e := sim.NewEngine()
	h := NewHierarchy(e, DefaultHierarchyConfig(), stubBackend{e})
	done := sim.ContOf(func() {})
	op := func(i int) {
		miss, pf := addrOf(uint64(2*i)), addrOf(uint64(2*i+1))
		h.AccessCont(miss, i%4 == 0, done)
		h.AccessCont(miss, false, done)
		h.Prefetch(pf)
		h.AccessCont(pf, false, done)
		h.AccessCont(addrOf(uint64(1<<30+i%64)), false, done)
		if i%8 == 7 {
			e.Run()
		}
	}
	// Grow the slab, the tables and the engine's free list to their
	// high-water marks before timing.
	const warm = 4096
	for i := 0; i < warm; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(warm + i)
	}
	e.Run()
	b.StopTimer()
	for _, name := range []string{"cache.l1.hits", "cache.mshr_merges", "cache.prefetches", "cache.prefetch_demand_merges"} {
		if e.Stats.Get(name) == 0 {
			b.Fatalf("%s = 0: the stream does not exercise that path", name)
		}
	}
}
