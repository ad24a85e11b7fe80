// Package omt implements the Overlay Mapping Table of §4.2/§4.4.4 and the
// memory controller's 64-entry OMT cache. The OMT maps each page of the
// Overlay Address Space (an OPN) to its OBitVector and the base address of
// the segment holding the overlay in the Overlay Memory Store. It is
// stored hierarchically like the virtual-to-physical tables and is owned
// entirely by the memory controller — the OS never walks it.
package omt

import (
	"repro/internal/arch"
	"repro/internal/sim"
)

// Entry is one OMT entry: the page's overlay bit vector and the segment
// base in the Overlay Memory Store (0 = no segment allocated yet; space
// is allocated lazily on the first dirty overlay write-back, §4.3.3).
type Entry struct {
	OBits   arch.OBitVector
	SegBase arch.PhysAddr
}

// Empty reports whether the entry carries no overlay state.
func (e Entry) Empty() bool { return e.OBits == 0 && e.SegBase == 0 }

// Resident reports whether the entry holds a direct (pointer-swizzled)
// segment handle into the Overlay Memory Store. False when no segment is
// allocated or when SegBase is a cold reference to a segment evicted to
// the spill tier — the miss path must Resolve it (refilling the segment)
// before lines can be located.
func (e Entry) Resident() bool { return e.SegBase != 0 && !e.SegBase.IsCold() }

// The table is a 4-level radix over the 52 meaningful OPN bits
// (overlay bit + 15-bit PID + 36-bit VPN), 13 bits per level.
const (
	radixLevels = 4
	radixBits   = 13
	radixFanout = 1 << radixBits
	radixMask   = radixFanout - 1
)

type node struct {
	children [radixFanout]*node
	entries  []Entry
}

// Table is the in-memory OMT.
type Table struct {
	root    node
	lastHop int // interior nodes touched by the last walk (test aid)
}

func idx(opn arch.OPN, level int) int {
	shift := uint(radixBits * (radixLevels - 1 - level))
	return int(uint64(opn)>>shift) & radixMask
}

// Get returns the entry for opn (zero entry if absent).
func (t *Table) Get(opn arch.OPN) Entry {
	if e := t.find(opn); e != nil {
		return *e
	}
	return Entry{}
}

func (t *Table) find(opn arch.OPN) *Entry {
	n := &t.root
	t.lastHop = 0
	for level := 0; level < radixLevels-1; level++ {
		t.lastHop++
		n = n.children[idx(opn, level)]
		if n == nil {
			return nil
		}
	}
	if n.entries == nil {
		return nil
	}
	return &n.entries[idx(opn, radixLevels-1)]
}

// Ref returns a pointer to the entry, materialising the path. The pointer
// stays valid until Delete.
func (t *Table) Ref(opn arch.OPN) *Entry {
	n := &t.root
	for level := 0; level < radixLevels-1; level++ {
		i := idx(opn, level)
		if n.children[i] == nil {
			n.children[i] = &node{}
			if level == radixLevels-2 {
				n.children[i].entries = make([]Entry, radixFanout)
			}
		}
		n = n.children[i]
	}
	return &n.entries[idx(opn, radixLevels-1)]
}

// Delete clears the entry for opn.
func (t *Table) Delete(opn arch.OPN) {
	if e := t.find(opn); e != nil {
		*e = Entry{}
	}
}

// Count returns the number of non-empty entries (the OMT's live
// metadata footprint; translation backends charge bytes per entry).
func (t *Table) Count() int {
	return countNode(&t.root, 0)
}

func countNode(n *node, level int) int {
	total := 0
	if level == radixLevels-1 {
		for i := range n.entries {
			if !n.entries[i].Empty() {
				total++
			}
		}
		return total
	}
	for _, c := range n.children {
		if c != nil {
			total += countNode(c, level+1)
		}
	}
	return total
}

// Cache is the 64-entry OMT cache in the memory controller (Fig. 6, Ë).
// It is a latency model over the authoritative Table: entries returned by
// Lookup point directly into the table, so updates through them are
// automatically coherent; the cache decides only whether the access costs
// a hit or a full OMT walk.
// Residency is tracked with an intrusive doubly-linked LRU list over a
// fixed cap-sized slot array: hits and fills move the slot to the front,
// misses at capacity evict the tail. This selects exactly the victim the
// old timestamp scan did (least recently looked up), without the O(cap)
// minimum scan or a growing stamp map.
type Cache struct {
	table   *Table
	stats   *sim.Stats
	missLog *sim.Histogram // OMT walk penalty paid per cache miss
	cap     int
	hitLat  sim.Cycle
	missLat sim.Cycle

	slots      []cacheSlot
	index      sim.LineTable // OPN → slot
	head, tail int32         // MRU at head, LRU at tail; -1 when empty
	free       []int32

	hits      *uint64
	misses    *uint64
	evictions *uint64
}

// cacheSlot is one residency slot in the LRU list.
type cacheSlot struct {
	opn        arch.OPN
	prev, next int32
}

// CacheConfig sizes the OMT cache.
type CacheConfig struct {
	Entries     int
	HitLatency  sim.Cycle
	MissLatency sim.Cycle // the OMT walk (Table 2: 1000 cycles)
}

// DefaultCacheConfig mirrors Table 2.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Entries: 64, HitLatency: 5, MissLatency: 1000}
}

// NewCache builds the OMT cache over the table.
func NewCache(cfg CacheConfig, table *Table, stats *sim.Stats) *Cache {
	if cfg.Entries < 1 {
		panic("omt: cache needs at least one entry")
	}
	c := &Cache{
		table:   table,
		stats:   stats,
		cap:     cfg.Entries,
		hitLat:  cfg.HitLatency,
		missLat: cfg.MissLatency,
		slots:   make([]cacheSlot, cfg.Entries),
		head:    -1,
		tail:    -1,
		free:    make([]int32, 0, cfg.Entries),
	}
	for i := cfg.Entries - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	if stats != nil {
		c.missLog = stats.Histogram("omt.miss_penalty_cycles")
		c.hits = stats.Counter("omt.cache_hits")
		c.misses = stats.Counter("omt.cache_misses")
		c.evictions = stats.Counter("omt.cache_evictions")
	} else {
		var sink uint64
		c.hits, c.misses, c.evictions = &sink, &sink, &sink
	}
	return c
}

func (c *Cache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

func (c *Cache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Lookup returns the (authoritative) entry pointer for opn and the access
// latency: a cache hit or a full OMT walk that then fills the cache.
func (c *Cache) Lookup(opn arch.OPN) (*Entry, sim.Cycle) {
	if i, ok := c.index.Get(uint64(opn)); ok {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		*c.hits++
		return c.table.Ref(opn), c.hitLat
	}
	*c.misses++
	if c.missLog != nil {
		c.missLog.Observe(uint64(c.missLat))
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = c.tail
		c.unlink(i)
		c.index.Take(uint64(c.slots[i].opn))
		*c.evictions++
	}
	c.slots[i].opn = opn
	c.pushFront(i)
	c.index.Put(uint64(opn), i)
	return c.table.Ref(opn), c.missLat
}

// Contains reports whether opn is cached (no latency, no LRU update).
func (c *Cache) Contains(opn arch.OPN) bool {
	_, ok := c.index.Get(uint64(opn))
	return ok
}

// Invalidate drops opn from the cache (promotion/discard actions).
func (c *Cache) Invalidate(opn arch.OPN) {
	i, ok := c.index.Take(uint64(opn))
	if !ok {
		return
	}
	c.unlink(i)
	c.free = append(c.free, i)
}
