package omt

import "repro/internal/sim"

// Snapshot support: the authoritative Table is deep-copied (radix nodes
// and entry leaves) and the controller cache's intrusive-LRU residency
// state is captured by value; the residency index is rebuilt from the
// LRU list on restore. Restored cache slots resolve entries dynamically
// through Table.Ref, so re-pointing a restored cache at a forked table
// is all the rebinding needed.

func cloneNode(n *node) *node {
	c := &node{}
	if n.entries != nil {
		c.entries = append([]Entry(nil), n.entries...)
	}
	for i, child := range n.children {
		if child != nil {
			c.children[i] = cloneNode(child)
		}
	}
	return c
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	c := &Table{}
	if t.root.entries != nil {
		c.root.entries = append([]Entry(nil), t.root.entries...)
	}
	for i, child := range t.root.children {
		if child != nil {
			c.root.children[i] = cloneNode(child)
		}
	}
	return c
}

// CacheSnapshot is an immutable capture of the OMT cache's residency
// and LRU state.
type CacheSnapshot struct {
	slots      []cacheSlot
	head, tail int32
	free       []int32
}

// Snapshot captures the cache's LRU list and slot array.
func (c *Cache) Snapshot() *CacheSnapshot {
	return &CacheSnapshot{
		slots: append([]cacheSlot(nil), c.slots...),
		head:  c.head,
		tail:  c.tail,
		free:  append([]int32(nil), c.free...),
	}
}

// Restore loads the captured residency state into this cache and points
// it at the given table (a fork's own deep copy). The cache must have
// the same capacity as the one that produced the snapshot.
func (c *Cache) Restore(s *CacheSnapshot, table *Table) {
	if len(s.slots) != len(c.slots) {
		panic("omt: cache restore capacity mismatch")
	}
	copy(c.slots, s.slots)
	c.index = sim.LineTable{}
	for i := s.head; i >= 0; i = c.slots[i].next {
		c.index.Put(uint64(c.slots[i].opn), i)
	}
	c.head, c.tail = s.head, s.tail
	c.free = append(c.free[:0], s.free...)
	c.table = table
}
