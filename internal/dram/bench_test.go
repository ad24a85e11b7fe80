package dram

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// BenchmarkDRAMAccess measures a read plus a write-buffer write through
// the controller, including FR-FCFS scheduling, bank/row bookkeeping,
// and the pending-write line table, with addresses striding across rows
// and banks.
func BenchmarkDRAMAccess(b *testing.B) {
	e := sim.NewEngine()
	c := New(e, DefaultConfig())
	var sink int
	done := sim.ContOf(func() { sink++ })
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// Stride by a prime number of lines so successive accesses walk
		// rows and banks instead of replaying one row buffer.
		addr := arch.PhysAddr(uint64(n) * 37 << arch.LineShift)
		c.ReadCont(addr, done)
		c.Write(addr, nil)
		e.Run()
	}
	if sink != b.N {
		b.Fatalf("completed %d reads, want %d", sink, b.N)
	}
}

// BenchmarkDRAMIssue measures the FR-FCFS scheduler under a deep queue:
// each op enqueues 40 reads and then 64 writes spread over 4 rows of
// every bank, so picks mix row hits, conflicts and head-of-queue
// fallbacks, the 64th write starts a full write-buffer drain, and the
// engine then runs until both queues are empty.
func BenchmarkDRAMIssue(b *testing.B) {
	const reads, writes = 40, 64
	e := sim.NewEngine()
	cfg := DefaultConfig()
	c := New(e, cfg)
	linesPerRow := uint64(cfg.RowBytes / arch.LineSize)
	var sink int
	done := sim.ContOf(func() { sink++ })
	x := uint64(1)
	addr := func() arch.PhysAddr {
		x = x*6364136223846793005 + 1442695040888963407
		bank, row, col := x>>61, x>>59&3, x>>54&31
		return lineAddr((row*uint64(cfg.Banks)+bank)*linesPerRow + col)
	}
	batch := func() {
		for i := 0; i < reads; i++ {
			c.ReadCont(addr(), done)
		}
		for i := 0; i < writes; i++ {
			c.Write(addr(), nil)
		}
		e.Run()
	}
	batch() // grow the request slab, queues and event free list
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		batch()
	}
	if c.Pending() != 0 || sink != (b.N+1)*reads {
		b.Fatalf("pending %d, completed %d reads of %d", c.Pending(), sink, (b.N+1)*reads)
	}
}
