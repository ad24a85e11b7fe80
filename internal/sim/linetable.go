package sim

import "math/bits"

// LineTable is an open-addressed hash table from a line number (or any
// key below 2^64-1) to a small int32 value: a slab index or a count.
// The simulator's per-access lookups (cache MSHRs and in-flight
// prefetches, the OMT cache's residency index, the DRAM write buffer's
// forwarding check) use it in place of Go maps: probing is linear over
// two flat arrays, deletion shifts the following cluster back instead
// of leaving tombstones, and once the table has grown to its high-water
// mark it never allocates again.
//
// The zero value is an empty table ready to use.
type LineTable struct {
	keys  []uint64 // lineTableEmpty marks a free slot
	vals  []int32
	used  int
	shift uint // 64 - log2(len(keys))
}

// lineTableEmpty is the free-slot marker; it is not a valid key.
const lineTableEmpty = ^uint64(0)

// home is the key's preferred slot: Fibonacci hashing takes the top
// bits of the product, which spreads sequential line numbers evenly.
func (t *LineTable) home(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> t.shift }

func (t *LineTable) mask() uint64 { return uint64(len(t.keys) - 1) }

// Len returns the number of keys held.
func (t *LineTable) Len() int { return t.used }

// Get returns the key's value and whether the key is present.
func (t *LineTable) Get(key uint64) (int32, bool) {
	if t.used == 0 {
		return 0, false
	}
	m := t.mask()
	for i := t.home(key); ; i = (i + 1) & m {
		switch t.keys[i] {
		case key:
			return t.vals[i], true
		case lineTableEmpty:
			return 0, false
		}
	}
}

// Put sets the key's value, inserting the key if absent. The table
// doubles when it would become more than half full.
func (t *LineTable) Put(key uint64, val int32) {
	if 2*(t.used+1) > len(t.keys) {
		t.grow()
	}
	m := t.mask()
	for i := t.home(key); ; i = (i + 1) & m {
		switch t.keys[i] {
		case key:
			t.vals[i] = val
			return
		case lineTableEmpty:
			t.keys[i], t.vals[i] = key, val
			t.used++
			return
		}
	}
}

// Take removes the key and returns the value it held.
func (t *LineTable) Take(key uint64) (int32, bool) {
	if t.used == 0 {
		return 0, false
	}
	m := t.mask()
	for i := t.home(key); ; i = (i + 1) & m {
		switch t.keys[i] {
		case key:
			val := t.vals[i]
			t.del(i)
			return val, true
		case lineTableEmpty:
			return 0, false
		}
	}
}

// del empties slot i and shifts the rest of its cluster back, so every
// remaining key stays reachable from its home slot without tombstones.
func (t *LineTable) del(i uint64) {
	m := t.mask()
	t.keys[i] = lineTableEmpty
	t.used--
	for j := (i + 1) & m; t.keys[j] != lineTableEmpty; j = (j + 1) & m {
		// The key at j moves into the hole at i unless its home lies
		// cyclically in (i, j], where the hole does not block its probe.
		if (j-t.home(t.keys[j]))&m >= (j-i)&m {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			t.keys[j] = lineTableEmpty
			i = j
		}
	}
}

func (t *LineTable) grow() {
	size := 16
	if len(t.keys) > 0 {
		size = 2 * len(t.keys)
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.used = 0
	t.shift = uint(65 - bits.Len(uint(size)))
	for i := range t.keys {
		t.keys[i] = lineTableEmpty
	}
	for i, k := range oldKeys {
		if k != lineTableEmpty {
			t.Put(k, oldVals[i])
		}
	}
}
