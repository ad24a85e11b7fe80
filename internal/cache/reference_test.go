package cache

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// Differential test: Cache against a naive per-set reference model,
// driven by seeded random Lookup/Fill/Retag/Invalidate traces over a
// small pool of regular and overlay lines. The reference keeps LRU as an
// ordered list per set (MRU first) and DRRIP as a per-way RRPV array with
// a PSEL counter and the same set-dueling leaders, so it shares no data
// layout with the cache under test.

type refLine struct {
	valid, dirty bool
	line         uint64
	rrpv         int
}

type refCache struct {
	drrip   bool
	sets    int
	ways    int
	lru     [][]refLine // per set, MRU first, valid lines only
	way     [][]refLine // DRRIP: per set, per way
	psel    int
	fillSeq uint64
	hits    uint64
	misses  uint64
}

func newRefCache(drrip bool, sets, ways int) *refCache {
	r := &refCache{drrip: drrip, sets: sets, ways: ways, psel: pselMax / 2}
	r.lru = make([][]refLine, sets)
	r.way = make([][]refLine, sets)
	for s := range r.way {
		r.way[s] = make([]refLine, ways)
		for w := range r.way[s] {
			r.way[s][w].rrpv = rrpvMax
		}
	}
	return r
}

func (r *refCache) setOf(line uint64) int { return int(line % uint64(r.sets)) }

// refLeader is +1 for an SRRIP leader set, -1 for a BRRIP leader, 0
// for a follower.
func refLeader(set int) int {
	switch set % 32 {
	case 0:
		return 1
	case 16:
		return -1
	}
	return 0
}

func (r *refCache) insertRRPV(set int) int {
	r.fillSeq++
	srrip := r.psel >= pselMax/2
	if l := refLeader(set); l != 0 {
		srrip = l > 0
	}
	if srrip || r.fillSeq%32 == 0 {
		return rrpvLong
	}
	return rrpvMax
}

// findLRU returns the index of line in set's recency list, or -1.
func (r *refCache) findLRU(set int, line uint64) int {
	for i, l := range r.lru[set] {
		if l.line == line {
			return i
		}
	}
	return -1
}

func (r *refCache) findWay(set int, line uint64) int {
	for w, l := range r.way[set] {
		if l.valid && l.line == line {
			return w
		}
	}
	return -1
}

func (r *refCache) promote(set, i int) {
	l := r.lru[set][i]
	copy(r.lru[set][1:i+1], r.lru[set][:i])
	r.lru[set][0] = l
}

func (r *refCache) lookup(line uint64, write bool) bool {
	set := r.setOf(line)
	if r.drrip {
		w := r.findWay(set, line)
		if w < 0 {
			r.misses++
			switch refLeader(set) {
			case 1:
				r.psel = max(r.psel-1, 0)
			case -1:
				r.psel = min(r.psel+1, pselMax)
			}
			return false
		}
		r.hits++
		r.way[set][w].rrpv = 0
		r.way[set][w].dirty = r.way[set][w].dirty || write
		return true
	}
	i := r.findLRU(set, line)
	if i < 0 {
		r.misses++
		return false
	}
	r.hits++
	r.lru[set][i].dirty = r.lru[set][i].dirty || write
	r.promote(set, i)
	return true
}

func (r *refCache) present(line uint64) bool {
	set := r.setOf(line)
	if r.drrip {
		return r.findWay(set, line) >= 0
	}
	return r.findLRU(set, line) >= 0
}

func (r *refCache) fill(line uint64, dirty bool) (ev Eviction, evicted bool) {
	set := r.setOf(line)
	if !r.drrip {
		if i := r.findLRU(set, line); i >= 0 {
			r.lru[set][i].dirty = r.lru[set][i].dirty || dirty
			r.promote(set, i)
			return Eviction{}, false
		}
		if len(r.lru[set]) == r.ways {
			v := r.lru[set][r.ways-1]
			ev, evicted = Eviction{Addr: addrOf(v.line), Dirty: v.dirty}, true
			r.lru[set] = r.lru[set][:r.ways-1]
		}
		r.lru[set] = append([]refLine{{valid: true, dirty: dirty, line: line}}, r.lru[set]...)
		return ev, evicted
	}
	row := r.way[set]
	if w := r.findWay(set, line); w >= 0 {
		row[w].dirty = row[w].dirty || dirty
		row[w].rrpv = r.insertRRPV(set)
		return Eviction{}, false
	}
	w := -1
	for i := range row {
		if !row[i].valid {
			w = i
			break
		}
	}
	for w < 0 {
		for i := range row {
			if row[i].rrpv == rrpvMax {
				w = i
				break
			}
		}
		if w < 0 {
			for i := range row {
				row[i].rrpv++
			}
		}
	}
	if row[w].valid {
		ev, evicted = Eviction{Addr: addrOf(row[w].line), Dirty: row[w].dirty}, true
	}
	row[w] = refLine{valid: true, dirty: dirty, line: line, rrpv: r.insertRRPV(set)}
	return ev, evicted
}

func (r *refCache) invalidate(line uint64) (present, dirty bool) {
	set := r.setOf(line)
	if r.drrip {
		w := r.findWay(set, line)
		if w < 0 {
			return false, false
		}
		dirty = r.way[set][w].dirty
		r.way[set][w].valid, r.way[set][w].dirty = false, false
		return true, dirty
	}
	i := r.findLRU(set, line)
	if i < 0 {
		return false, false
	}
	dirty = r.lru[set][i].dirty
	r.lru[set] = append(r.lru[set][:i], r.lru[set][i+1:]...)
	return true, dirty
}

// retag renames old to new. Within one set the line keeps its way and
// recency; across sets it is removed and refilled with its dirty bit.
func (r *refCache) retag(old, new uint64) (moved bool, ev Eviction, evicted bool) {
	set := r.setOf(old)
	if r.setOf(new) == set {
		if r.drrip {
			if w := r.findWay(set, old); w >= 0 {
				r.way[set][w].line = new
				return true, Eviction{}, false
			}
		} else if i := r.findLRU(set, old); i >= 0 {
			r.lru[set][i].line = new
			return true, Eviction{}, false
		}
		return false, Eviction{}, false
	}
	present, dirty := r.invalidate(old)
	if !present {
		return false, Eviction{}, false
	}
	ev, evicted = r.fill(new, dirty)
	return true, ev, evicted
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drrip bool
		sets  int
		ways  int
	}{
		{"lru/16x4", false, 16, 4},
		{"lru/4x8", false, 4, 8},
		{"drrip/64x4", true, 64, 4},
		{"drrip/32x16", true, 32, 16},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			checkAgainstReference(t, tc.name, tc.drrip, tc.sets, tc.ways, seed)
		}
	}
}

func checkAgainstReference(t *testing.T, name string, drrip bool, sets, ways int, seed int64) {
	t.Helper()
	newCache := func() *Cache {
		policy := LRU
		if drrip {
			policy = DRRIP
		}
		return New(name, sets*ways*arch.LineSize, ways, policy)
	}
	c := newCache()
	ref := newRefCache(drrip, sets, ways)
	rng := rand.New(rand.NewSource(seed))
	// A pool twice the capacity keeps sets full and eviction frequent.
	// A third of it are overlay lines, and a retag usually renames a
	// line to its overlay twin, which shares its set index, as an
	// overlaying write does.
	pool := make([]uint64, 0, 2*sets*ways)
	for len(pool) < cap(pool) {
		line := uint64(rng.Intn(4 * sets * ways))
		if rng.Intn(3) == 0 {
			line |= arch.OverlayBit >> arch.LineShift
		}
		pool = append(pool, line)
	}
	pick := func() uint64 { return pool[rng.Intn(len(pool))] }

	const steps = 20000
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			// Continue on a restored copy: the snapshot must carry
			// every bit of tag and replacement state.
			fresh := newCache()
			fresh.Restore(c.Snapshot())
			c = fresh
		}
		line := pick()
		a := addrOf(line)
		fail := func(op string, got, want any) {
			t.Fatalf("%s seed %d step %d: %s(%#x) = %v, reference %v", name, seed, step, op, line, got, want)
		}
		switch op := rng.Intn(10); {
		case op < 4:
			write := rng.Intn(4) == 0
			if got, want := c.Lookup(a, write), ref.lookup(line, write); got != want {
				fail("Lookup", got, want)
			}
		case op < 7:
			dirty := rng.Intn(3) == 0
			ev, evicted := c.Fill(a, dirty)
			wev, wevicted := ref.fill(line, dirty)
			if ev != wev || evicted != wevicted {
				fail("Fill", [2]any{ev, evicted}, [2]any{wev, wevicted})
			}
		case op < 8:
			p, d := c.Invalidate(a)
			wp, wd := ref.invalidate(line)
			if p != wp || d != wd {
				fail("Invalidate", [2]bool{p, d}, [2]bool{wp, wd})
			}
		case op < 9:
			// Retag to the overlay twin (same set) or to an arbitrary
			// pool line (usually another set).
			to := line | arch.OverlayBit>>arch.LineShift
			if rng.Intn(2) == 0 {
				to = pick()
			}
			if ref.present(to) {
				continue // a rename never targets a resident line
			}
			moved, ev, evicted := c.Retag(a, addrOf(to))
			wm, wev, wevicted := ref.retag(line, to)
			if moved != wm || ev != wev || evicted != wevicted {
				fail("Retag", [3]any{moved, ev, evicted}, [3]any{wm, wev, wevicted})
			}
		default:
			if got, want := c.Present(a), ref.present(line); got != want {
				fail("Present", got, want)
			}
		}
	}
	if c.Hits != ref.hits || c.Misses != ref.misses {
		t.Fatalf("%s seed %d: hits/misses %d/%d, reference %d/%d", name, seed, c.Hits, c.Misses, ref.hits, ref.misses)
	}
	got := map[arch.PhysAddr]bool{}
	for _, a := range c.DirtyLines() {
		got[a] = true
	}
	want := map[arch.PhysAddr]bool{}
	for set := range ref.way {
		for _, l := range append(ref.lru[set], ref.way[set]...) {
			if l.valid && l.dirty {
				want[addrOf(l.line)] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: %d dirty lines, reference %d", name, seed, len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Fatalf("%s seed %d: line %#x not dirty, reference dirty", name, seed, a)
		}
	}
}
