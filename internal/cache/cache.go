// Package cache models the processor cache hierarchy of Table 2: a 64 KB
// 4-way L1 and 512 KB 8-way L2 with LRU and parallel tag/data lookup, and
// a 2 MB 16-way L3 with serial tag/data lookup and DRRIP replacement. All
// levels use 64 B lines, are write-back/write-allocate, and are
// non-inclusive.
//
// Cache tags are full widened physical addresses, so lines from the
// Overlay Address Space coexist with regular lines — the "wider cache
// tags" cost the paper accounts for in §4.5. The hierarchy is timing-only:
// functional data lives in internal/mem and is updated by the core
// framework at access time.
//
// Each level keeps its tags in one flat array of words, one word per
// way, and its replacement state in flat per-way arrays beside it, so a
// fill scans the set once to find a hit, a free way and the victim.
package cache

import (
	"fmt"

	"repro/internal/arch"
)

// Policy selects a cache level's replacement policy.
type Policy uint8

const (
	// LRU evicts the least recently used line.
	LRU Policy = iota
	// DRRIP is dynamic re-reference interval prediction (Jaleel et al.,
	// ISCA 2010): SRRIP and BRRIP insertion chosen by set dueling.
	DRRIP
)

// A tag word holds line<<2 | dirty<<1 | valid. A line number is at most
// 58 bits (the widened address space shifted by LineShift), so it fits.
const (
	validBit = 1
	dirtyBit = 2
)

// DRRIP constants: 2-bit re-reference prediction values, set dueling
// between SRRIP and BRRIP with a 10-bit policy selector.
const (
	rrpvMax      = 3    // distant re-reference
	rrpvLong     = 2    // long re-reference (SRRIP insertion)
	pselMax      = 1023 // 10-bit saturating selector
	duelPeriod   = 32   // one leader set per 32 sets per policy
	brripEpsilon = 32   // BRRIP inserts "long" once every 32 fills
)

// Cache is a single set-associative cache level.
type Cache struct {
	Name   string
	sets   int
	ways   int
	policy Policy
	tags   []uint64 // sets*ways tag words, set-major

	// LRU: the clock value of each way's last touch. A way that holds
	// no line has stamp 0, so a set's oldest stamp names its first free
	// way when it has one and its least recently used line otherwise.
	stamp []uint64
	clock uint64

	// DRRIP: each way's re-reference prediction value, the dueling
	// selector, and the fill count that paces BRRIP's long insertions.
	rrpv    []uint8
	psel    int
	fillSeq uint64

	Hits   uint64
	Misses uint64
}

// New builds a cache of sizeBytes capacity, the given associativity and
// replacement policy.
func New(name string, sizeBytes, ways int, policy Policy) *Cache {
	lines := sizeBytes / arch.LineSize
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	c := &Cache{Name: name, sets: sets, ways: ways, policy: policy, tags: make([]uint64, lines)}
	switch policy {
	case LRU:
		c.stamp = make([]uint64, lines)
	case DRRIP:
		c.rrpv = make([]uint8, lines)
		for i := range c.rrpv {
			c.rrpv[i] = rrpvMax
		}
		c.psel = pselMax / 2
	default:
		panic(fmt.Sprintf("cache %s: unknown replacement policy %d", name, policy))
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// locate returns addr's set and the tag word a clean copy of its line
// holds.
func (c *Cache) locate(addr arch.PhysAddr) (set int, want uint64) {
	line := uint64(addr) >> arch.LineShift
	return int(line & uint64(c.sets-1)), line<<2 | validBit
}

// find returns addr's set and the flat index of the way holding its
// line, or -1.
func (c *Cache) find(addr arch.PhysAddr) (set, i int) {
	set, want := c.locate(addr)
	base := set * c.ways
	for w, x := range c.tags[base : base+c.ways] {
		if x&^dirtyBit == want {
			return set, base + w
		}
	}
	return set, -1
}

// touch records a hit on the way at flat index i.
func (c *Cache) touch(i int) {
	if c.policy == LRU {
		c.clock++
		c.stamp[i] = c.clock
	} else {
		c.rrpv[i] = 0
	}
}

// vacate empties the way at flat index i.
func (c *Cache) vacate(i int) {
	c.tags[i] = 0
	if c.policy == LRU {
		c.stamp[i] = 0
	}
}

// leader classifies a set for DRRIP's duel: +1 SRRIP leader, -1 BRRIP
// leader, 0 follower.
func leader(set int) int {
	switch set % duelPeriod {
	case 0:
		return 1
	case duelPeriod / 2:
		return -1
	default:
		return 0
	}
}

// insertion returns the RRPV a DRRIP fill into set installs.
func (c *Cache) insertion(set int) uint8 {
	c.fillSeq++
	srrip := c.psel >= pselMax/2
	if l := leader(set); l != 0 {
		srrip = l > 0
	}
	// BRRIP inserts at distant re-reference, with an occasional long one.
	if srrip || c.fillSeq%brripEpsilon == 0 {
		return rrpvLong
	}
	return rrpvMax
}

// Lookup probes the cache. On a hit it updates replacement state, marks
// the line dirty if write is set, and returns true.
func (c *Cache) Lookup(addr arch.PhysAddr, write bool) bool {
	set, i := c.find(addr)
	if i < 0 {
		c.Misses++
		if c.policy == DRRIP {
			// A miss in a leader set is a vote against its policy.
			switch leader(set) {
			case 1:
				c.psel = max(c.psel-1, 0)
			case -1:
				c.psel = min(c.psel+1, pselMax)
			}
		}
		return false
	}
	c.Hits++
	c.touch(i)
	if write {
		c.tags[i] |= dirtyBit
	}
	return true
}

// Present reports whether the line is cached, without touching
// replacement or hit/miss statistics.
func (c *Cache) Present(addr arch.PhysAddr) bool {
	_, i := c.find(addr)
	return i >= 0
}

// Eviction describes a block displaced by Fill.
type Eviction struct {
	Addr  arch.PhysAddr
	Dirty bool
}

// Fill installs the line, evicting a victim if the set is full. The
// returned eviction is valid only when evicted is true. A line already
// present (e.g. a racing prefetch) only merges its dirty state.
func (c *Cache) Fill(addr arch.PhysAddr, dirty bool) (ev Eviction, evicted bool) {
	set, want := c.locate(addr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	var d uint64
	if dirty {
		d = dirtyBit
	}
	var v int // the way to fill
	if c.policy == LRU {
		stamps := c.stamp[base : base+c.ways]
		oldest := stamps[0]
		for w, x := range tags {
			if x&^dirtyBit == want {
				tags[w] = x | d
				c.touch(base + w)
				return Eviction{}, false
			}
			if stamps[w] < oldest {
				v, oldest = w, stamps[w]
			}
		}
		c.touch(base + v)
	} else {
		rrpv := c.rrpv[base : base+c.ways]
		free, far := -1, rrpv[0]
		for w, x := range tags {
			if x&^dirtyBit == want {
				tags[w] = x | d
				rrpv[w] = c.insertion(set)
				return Eviction{}, false
			}
			if x&validBit == 0 && free < 0 {
				free = w
			}
			if rrpv[w] > far {
				v, far = w, rrpv[w]
			}
		}
		if free >= 0 {
			v = free
		} else if far < rrpvMax {
			// Age the set until its most distant way reaches rrpvMax;
			// the first such way is the victim.
			for w := range rrpv {
				rrpv[w] += rrpvMax - far
			}
		}
		rrpv[v] = c.insertion(set)
	}
	if x := tags[v]; x&validBit != 0 {
		ev = Eviction{Addr: arch.PhysAddr(x >> 2 << arch.LineShift), Dirty: x&dirtyBit != 0}
		evicted = true
	}
	tags[v] = want | d
	return ev, evicted
}

// Invalidate removes the line if present, returning whether it was present
// and whether it was dirty.
func (c *Cache) Invalidate(addr arch.PhysAddr) (present, dirty bool) {
	_, i := c.find(addr)
	if i < 0 {
		return false, false
	}
	dirty = c.tags[i]&dirtyBit != 0
	c.vacate(i)
	return true, dirty
}

// Retag renames a cached line from oldAddr to newAddr, preserving dirty
// state. This implements the first step of an overlaying write (§4.3.3):
// the block's data stays in place and only its tag changes. It returns
// false when oldAddr is not cached. If the new tag maps to a different
// set, the line is refilled there (possibly evicting a victim).
func (c *Cache) Retag(oldAddr, newAddr arch.PhysAddr) (moved bool, ev Eviction, evicted bool) {
	set, i := c.find(oldAddr)
	if i < 0 {
		return false, Eviction{}, false
	}
	newSet, want := c.locate(newAddr)
	if newSet == set {
		c.tags[i] = want | c.tags[i]&dirtyBit
		return true, Eviction{}, false
	}
	dirty := c.tags[i]&dirtyBit != 0
	c.vacate(i)
	ev, evicted = c.Fill(newAddr, dirty)
	return true, ev, evicted
}

// DirtyLines returns the addresses of all dirty lines (test/debug aid and
// used by flush-style promotions).
func (c *Cache) DirtyLines() []arch.PhysAddr {
	var out []arch.PhysAddr
	for _, x := range c.tags {
		if x&(validBit|dirtyBit) == validBit|dirtyBit {
			out = append(out, arch.PhysAddr(x>>2<<arch.LineShift))
		}
	}
	return out
}
