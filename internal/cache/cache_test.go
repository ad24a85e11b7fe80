package cache

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
)

func addrOf(lineNum uint64) arch.PhysAddr { return arch.PhysAddr(lineNum << arch.LineShift) }

func TestCacheGeometry(t *testing.T) {
	c := New("l1", 64<<10, 4, LRU)
	if c.Sets() != 256 || c.Ways() != 4 {
		t.Fatalf("sets=%d ways=%d, want 256/4", c.Sets(), c.Ways())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New("t", 4096, 2, LRU) // 32 sets
	a := addrOf(5)
	if c.Lookup(a, false) {
		t.Fatal("unexpected hit in empty cache")
	}
	c.Fill(a, false)
	if !c.Lookup(a, false) {
		t.Fatal("expected hit after fill")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New("t", 4096, 2, LRU)
	a := addrOf(3)
	c.Fill(a, false)
	c.Lookup(a, true)
	dirty := c.DirtyLines()
	if len(dirty) != 1 || dirty[0] != a {
		t.Fatalf("DirtyLines = %v", dirty)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("t", 2*arch.LineSize, 2, LRU) // 1 set, 2 ways
	a, b, d := addrOf(0), addrOf(1), addrOf(2)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // a is now MRU
	ev, evicted := c.Fill(d, true)
	if !evicted || ev.Addr != b {
		t.Fatalf("evicted %+v (%v), want b", ev, evicted)
	}
	if !c.Present(a) || !c.Present(d) || c.Present(b) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	c := New("t", 2*arch.LineSize, 2, LRU)
	c.Fill(addrOf(0), true)
	c.Fill(addrOf(1), false)
	ev, evicted := c.Fill(addrOf(2), false)
	if !evicted || ev.Addr != addrOf(0) || !ev.Dirty {
		t.Fatalf("eviction = %+v (%v), want dirty line 0", ev, evicted)
	}
}

func TestFillIsIdempotentAndMergesDirty(t *testing.T) {
	c := New("t", 4096, 2, LRU)
	a := addrOf(9)
	c.Fill(a, false)
	_, evicted := c.Fill(a, true)
	if evicted {
		t.Fatal("refill of present line must not evict")
	}
	if len(c.DirtyLines()) != 1 {
		t.Fatal("refill should merge dirty state")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("t", 4096, 2, LRU)
	a := addrOf(7)
	c.Fill(a, true)
	present, dirty := c.Invalidate(a)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Present(a) {
		t.Fatal("line still present")
	}
	present, _ = c.Invalidate(a)
	if present {
		t.Fatal("second invalidate should miss")
	}
}

func TestRetagSameSet(t *testing.T) {
	c := New("t", 64*arch.LineSize, 4, LRU) // 16 sets
	// Same set ⇒ line numbers congruent mod 16.
	oldA, newA := addrOf(3), addrOf(3+16)
	c.Fill(oldA, true)
	moved, _, evicted := c.Retag(oldA, newA)
	if !moved || evicted {
		t.Fatalf("Retag = moved=%v evicted=%v", moved, evicted)
	}
	if c.Present(oldA) || !c.Present(newA) {
		t.Fatal("retag did not rename the line")
	}
	if len(c.DirtyLines()) != 1 {
		t.Fatal("retag must preserve dirty state")
	}
}

func TestRetagDifferentSet(t *testing.T) {
	c := New("t", 64*arch.LineSize, 4, LRU)
	oldA, newA := addrOf(3), addrOf(4)
	c.Fill(oldA, false)
	moved, _, _ := c.Retag(oldA, newA)
	if !moved || c.Present(oldA) || !c.Present(newA) {
		t.Fatal("cross-set retag failed")
	}
}

func TestRetagMiss(t *testing.T) {
	c := New("t", 4096, 2, LRU)
	moved, _, _ := c.Retag(addrOf(1), addrOf(2))
	if moved {
		t.Fatal("retag of absent line reported moved")
	}
}

func TestOverlayAddressesCoexist(t *testing.T) {
	// An overlay line and the regular line with the same low bits must not
	// collide: the overlay bit is part of the tag.
	c := New("t", 4096, 2, LRU)
	reg := addrOf(5)
	ovl := arch.PhysAddr(uint64(reg) | arch.OverlayBit)
	c.Fill(reg, false)
	if c.Present(ovl) {
		t.Fatal("overlay alias hit on regular line")
	}
	c.Fill(ovl, true)
	if !c.Present(reg) || !c.Present(ovl) {
		t.Fatal("lines should coexist")
	}
}

// fillSet fills every way of set with its own line and returns the
// lines in way order.
func fillSet(c *Cache, set int) []arch.PhysAddr {
	var lines []arch.PhysAddr
	for w := 0; w < c.Ways(); w++ {
		a := addrOf(uint64(set + w*c.Sets()))
		c.Fill(a, false)
		lines = append(lines, a)
	}
	return lines
}

func TestDRRIPVictimPrefersDistant(t *testing.T) {
	c := New("t", 64*4*arch.LineSize, 4, DRRIP)
	set := 1 // follower set
	// Fill all ways (SRRIP default: PSEL starts in SRRIP half).
	lines := fillSet(c, set)
	c.Lookup(lines[2], false) // way 2 becomes RRPV 0
	ev, evicted := c.Fill(addrOf(uint64(set+4*c.Sets())), false)
	if !evicted || ev.Addr == lines[2] {
		t.Fatalf("eviction %+v (%v): victim selected the just-hit way", ev, evicted)
	}
}

func TestDRRIPVictimTerminates(t *testing.T) {
	c := New("t", 64*4*arch.LineSize, 4, DRRIP)
	set := 1
	for _, a := range fillSet(c, set) {
		c.Lookup(a, false) // all RRPV 0
	}
	if _, evicted := c.Fill(addrOf(uint64(set+4*c.Sets())), false); !evicted {
		t.Fatal("fill into a full set evicted nothing")
	}
}

func TestDRRIPSetDueling(t *testing.T) {
	c := New("t", 64*4*arch.LineSize, 4, DRRIP)
	if leader(0) != 1 || leader(duelPeriod/2) != -1 || leader(1) != 0 {
		t.Fatal("leader classification wrong")
	}
	start := c.psel
	c.Lookup(addrOf(0), false) // SRRIP leader miss → PSEL down
	if c.psel != start-1 {
		t.Fatalf("psel = %d, want %d", c.psel, start-1)
	}
	c.Lookup(addrOf(duelPeriod/2), false) // BRRIP leader miss → PSEL up
	if c.psel != start {
		t.Fatalf("psel = %d, want %d", c.psel, start)
	}
}

func TestDRRIPScanResistance(t *testing.T) {
	// DRRIP's reason to exist: a working set that fits plus a scan. With
	// BRRIP winning the duel, most scan lines insert at distant RRPV and
	// the working set survives better than pure LRU.
	const ways = 16
	c := New("t", ways*arch.LineSize*64, ways, DRRIP)
	rng := rand.New(rand.NewSource(7))
	// Hot working set: ways/2 lines per set, touched often.
	hot := make([]arch.PhysAddr, 0)
	for i := 0; i < c.Sets()*ways/2; i++ {
		hot = append(hot, addrOf(uint64(i)))
	}
	for iter := 0; iter < 4; iter++ {
		for _, a := range hot {
			if !c.Lookup(a, false) {
				c.Fill(a, false)
			}
		}
		// Streaming scan: never reused.
		for i := 0; i < c.Sets()*ways*4; i++ {
			a := addrOf(uint64(1<<20) + uint64(iter*c.Sets()*ways*4+i))
			if !c.Lookup(a, false) {
				c.Fill(a, false)
			}
			_ = rng
		}
	}
	hits := 0
	for _, a := range hot {
		if c.Present(a) {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("DRRIP retained none of the hot working set under a scan")
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New("bad", 3*arch.LineSize, 1, LRU)
}
