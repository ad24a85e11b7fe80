package oms

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// BenchmarkOMSAlloc measures the steady-state AllocSegment/FreeSegment
// cycle across all size classes, exercising split and buddy-coalesce on
// every free. CI gates on this benchmark reporting 0 allocs/op — the
// flat unit-table allocator must run entirely on the intrusive free
// lists, with no map probes and no per-operation heap allocation.
func BenchmarkOMSAlloc(b *testing.B) {
	m := mem.New(1 << 10)
	var st sim.Stats
	s, err := New(m, &st, 8)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the free lists so the loop never asks the OS for frames.
	var warm [8]arch.PhysAddr
	for i := range warm {
		warm[i], _ = s.AllocSegment(i % (NumClasses - 1))
	}
	for _, base := range warm {
		s.FreeSegment(base)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		base, err := s.AllocSegment(n % (NumClasses - 1))
		if err != nil {
			b.Fatal(err)
		}
		s.FreeSegment(base)
	}
}

// BenchmarkOMSResolve measures the swizzled (resident) reference fast
// path: Resolve on a direct handle plus a LocateLine, the operations the
// memory controller performs on every overlay hierarchy miss. Gated at
// 0 allocs/op alongside BenchmarkOMSAlloc.
func BenchmarkOMSResolve(b *testing.B) {
	m := mem.New(1 << 10)
	var st sim.Stats
	s, err := New(m, &st, 8)
	if err != nil {
		b.Fatal(err)
	}
	base, err := s.AllocSegment(1)
	if err != nil {
		b.Fatal(err)
	}
	for line := 0; line < ClassSlots(1); line++ {
		if _, full := s.InsertLine(base, line); full {
			b.Fatal("segment full")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ref, _, err := s.Resolve(base)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := s.LocateLine(ref, n%ClassSlots(1)); !ok {
			b.Fatal("line missing")
		}
	}
}

// BenchmarkOMSInsertLine measures the metadata-line update path: one
// InsertLine (slot-pointer probe, free-vector scan and claim, pointer
// write) and the RemoveLine that undoes it, cycling over every slot of
// a 2 KB segment. Gated at 0 allocs/op alongside BenchmarkOMSAlloc.
func BenchmarkOMSInsertLine(b *testing.B) {
	m := mem.New(1 << 10)
	var st sim.Stats
	s, err := New(m, &st, 8)
	if err != nil {
		b.Fatal(err)
	}
	class := NumClasses - 2
	base, err := s.AllocSegment(class)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		line := n % ClassSlots(class)
		if _, full := s.InsertLine(base, line); full {
			b.Fatal("segment full")
		}
		s.RemoveLine(base, line)
	}
}
