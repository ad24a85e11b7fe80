// Package coherence implements a MESI invalidation protocol over
// per-core private L1 caches with a directory at the shared-L2 boundary.
// The paper's overlaying write rides exactly this network: the
// overlaying-read-exclusive message (§4.3.3) is an ordinary
// read-for-ownership that additionally carries a single-line OBitVector
// update to every sharer's TLB, which is why it avoids a full shootdown.
//
// The protocol here is the substrate for the multi-core experiments
// (both processes running after a fork); the single-core figures use the
// plain hierarchy in internal/cache.
//
// Directory and per-core state are flat per-page arrays indexed by line
// number (one pageCoh per 4 KB page holds 64 lineDir entries and a
// cores×64 state table), so the per-access lookups that used to probe
// two Go maps are an index computation plus one page-map probe, with the
// last-touched page cached.
package coherence

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/sim"
)

// State is a MESI line state.
type State uint8

const (
	// Invalid: not present.
	Invalid State = iota
	// Shared: clean, possibly in several L1s.
	Shared
	// Exclusive: clean, only this L1.
	Exclusive
	// Modified: dirty, only this L1.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// LineListener observes coherence events for a line (the overlay
// framework registers one to deliver OBitVector updates alongside
// overlaying-read-exclusive requests).
type LineListener interface {
	// OnReadExclusive fires when a core gains exclusive ownership of the
	// line, after all other copies have been invalidated.
	OnReadExclusive(core int, addr arch.PhysAddr)
}

// Config sizes the private caches and protocol latencies.
type Config struct {
	Cores      int
	L1Size     int
	L1Ways     int
	L1Hit      sim.Cycle // private-cache hit latency
	DirLookup  sim.Cycle // directory access at the shared boundary
	Invalidate sim.Cycle // invalidation round-trip to one sharer
	Forward    sim.Cycle // cache-to-cache transfer of a Modified line
	SharedHit  sim.Cycle // latency of the shared level below the directory
}

// DefaultConfig returns a 4-core arrangement matching the Table 2 L1.
func DefaultConfig() Config {
	return Config{
		Cores:      4,
		L1Size:     64 << 10,
		L1Ways:     4,
		L1Hit:      2,
		DirLookup:  10,
		Invalidate: 20,
		Forward:    30,
		SharedHit:  34,
	}
}

// Memory is what sits below the coherent domain.
type Memory interface {
	Fetch(addr arch.PhysAddr, done func())
	WriteBack(addr arch.PhysAddr)
}

// lineDir is one line's directory entry.
type lineDir struct {
	sharers uint64 // bitmap of cores with a copy
	owner   int8   // core holding M/E, -1 if none
}

// pageCoh is all coherence state for one physical (or overlay) page:
// 64 directory entries and a dense cores×64 MESI state table.
type pageCoh struct {
	dir [arch.LinesPerPage]lineDir
	st  []State // index core*arch.LinesPerPage + line
}

func (pc *pageCoh) state(core, line int) State {
	return pc.st[core*arch.LinesPerPage+line]
}

// Domain is the coherent multi-core cache domain.
type Domain struct {
	engine *sim.Engine
	cfg    Config
	l1     []*cache.Cache
	pages  map[uint64]*pageCoh // page number (addr >> PageShift) → state
	lastPN uint64              // last-touched page cache
	lastPC *pageCoh
	mem    Memory

	// The directory serialises transactions per line, exactly as real
	// directories do: a second request to a busy line queues behind the
	// first. Without this, in-flight installs and invalidations interleave
	// and break the single-writer invariant.
	busy map[arch.PhysAddr][]pendingOp

	listener LineListener

	lineConfl  *uint64
	l1Hits     *uint64
	readMisses *uint64
	writeMiss  *uint64
	ownerWBs   *uint64
	readExcl   *uint64
	invals     *uint64
}

// New builds a coherent domain of cfg.Cores private L1s over mem.
func New(engine *sim.Engine, cfg Config, mem Memory) *Domain {
	if cfg.Cores < 1 || cfg.Cores > 64 {
		panic("coherence: cores must be 1..64")
	}
	d := &Domain{
		engine:     engine,
		cfg:        cfg,
		mem:        mem,
		pages:      make(map[uint64]*pageCoh),
		busy:       make(map[arch.PhysAddr][]pendingOp),
		lineConfl:  engine.Stats.Counter("coherence.line_conflicts"),
		l1Hits:     engine.Stats.Counter("coherence.l1_hits"),
		readMisses: engine.Stats.Counter("coherence.read_misses"),
		writeMiss:  engine.Stats.Counter("coherence.write_misses"),
		ownerWBs:   engine.Stats.Counter("coherence.owner_writebacks"),
		readExcl:   engine.Stats.Counter("coherence.overlaying_read_exclusive"),
		invals:     engine.Stats.Counter("coherence.invalidations"),
	}
	for i := 0; i < cfg.Cores; i++ {
		d.l1 = append(d.l1, cache.New(fmt.Sprintf("l1.%d", i), cfg.L1Size, cfg.L1Ways, cache.LRU))
	}
	return d
}

// SetListener registers the coherence-event observer.
func (d *Domain) SetListener(l LineListener) { d.listener = l }

// Cores returns the number of cores in the domain.
func (d *Domain) Cores() int { return d.cfg.Cores }

// pageFor resolves the line-aligned address to its page's coherence state
// and line index, optionally creating the page. Returns a nil page only
// when create is false and the page was never touched.
func (d *Domain) pageFor(addr arch.PhysAddr, create bool) (*pageCoh, int) {
	pn := uint64(addr) >> arch.PageShift
	line := addr.Line()
	if d.lastPC != nil && d.lastPN == pn {
		return d.lastPC, line
	}
	pc := d.pages[pn]
	if pc == nil {
		if !create {
			return nil, line
		}
		pc = &pageCoh{st: make([]State, d.cfg.Cores*arch.LinesPerPage)}
		for i := range pc.dir {
			pc.dir[i].owner = -1
		}
		d.pages[pn] = pc
	}
	d.lastPN, d.lastPC = pn, pc
	return pc, line
}

// StateOf reports core's MESI state for the line (test/debug aid).
func (d *Domain) StateOf(core int, addr arch.PhysAddr) State {
	pc, line := d.pageFor(addr.LineAligned(), false)
	if pc == nil {
		return Invalid
	}
	return pc.state(core, line)
}

// pendingOp is a directory transaction awaiting its line.
type pendingOp func(release func())

// acquire serialises transactions per line: op runs immediately if the
// line is idle, else it queues behind the in-flight transaction.
func (d *Domain) acquire(addr arch.PhysAddr, op pendingOp) {
	if _, inFlight := d.busy[addr]; inFlight {
		d.busy[addr] = append(d.busy[addr], op)
		*d.lineConfl++
		return
	}
	d.busy[addr] = nil
	d.run(addr, op)
}

func (d *Domain) run(addr arch.PhysAddr, op pendingOp) {
	op(func() {
		q := d.busy[addr]
		if len(q) == 0 {
			delete(d.busy, addr)
			return
		}
		next := q[0]
		d.busy[addr] = q[1:]
		d.engine.Schedule(0, func() { d.run(addr, next) })
	})
}

// Read performs a coherent load by `core`; done fires at completion.
func (d *Domain) Read(core int, addr arch.PhysAddr, done func()) {
	if done == nil {
		done = func() {}
	}
	addr = addr.LineAligned()
	d.acquire(addr, func(release func()) {
		d.doRead(core, addr, func() { release(); done() })
	})
}

func (d *Domain) doRead(core int, addr arch.PhysAddr, done func()) {
	pc, line := d.pageFor(addr, true)
	if s := pc.state(core, line); s != Invalid {
		*d.l1Hits++
		d.touch(core, addr, false)
		d.engine.Schedule(d.cfg.L1Hit, done)
		return
	}
	*d.readMisses++
	e := &pc.dir[line]
	lat := d.cfg.L1Hit + d.cfg.DirLookup
	if e.owner >= 0 && int(e.owner) != core {
		// Modified or Exclusive elsewhere: fetch cache-to-cache; the owner
		// downgrades to Shared (writing back if Modified).
		owner := int(e.owner)
		if pc.state(owner, line) == Modified {
			d.mem.WriteBack(addr)
			*d.ownerWBs++
		}
		d.setState(pc, owner, addr, line, Shared)
		e.owner = -1
		e.sharers |= 1 << uint(owner)
		lat += d.cfg.Forward
		d.finishRead(core, addr, e, lat, done)
		return
	}
	if e.sharers != 0 {
		// Clean copies exist below/beside: serve from the shared level.
		lat += d.cfg.SharedHit
		d.finishRead(core, addr, e, lat, done)
		return
	}
	// Nobody has it: fetch from memory, first reader gets Exclusive.
	d.engine.Schedule(lat, func() {
		d.mem.Fetch(addr, func() {
			d.install(core, addr, Exclusive)
			e.owner = int8(core)
			done()
		})
	})
}

func (d *Domain) finishRead(core int, addr arch.PhysAddr, e *lineDir, lat sim.Cycle, done func()) {
	d.engine.Schedule(lat, func() {
		d.install(core, addr, Shared)
		e.sharers |= 1 << uint(core)
		done()
	})
}

// Write performs a coherent store by `core` (read-for-ownership +
// upgrade); done fires when the core owns the line in Modified state.
func (d *Domain) Write(core int, addr arch.PhysAddr, done func()) {
	if done == nil {
		done = func() {}
	}
	addr = addr.LineAligned()
	d.acquire(addr, func(release func()) {
		d.doWrite(core, addr, func() { release(); done() })
	})
}

func (d *Domain) doWrite(core int, addr arch.PhysAddr, done func()) {
	pc, line := d.pageFor(addr, true)
	switch pc.state(core, line) {
	case Modified:
		*d.l1Hits++
		d.touch(core, addr, true)
		d.engine.Schedule(d.cfg.L1Hit, done)
		return
	case Exclusive:
		// Silent upgrade E→M.
		*d.l1Hits++
		d.setState(pc, core, addr, line, Modified)
		d.touch(core, addr, true)
		d.engine.Schedule(d.cfg.L1Hit, done)
		return
	}
	*d.writeMiss++
	d.readExclusive(core, addr, done)
}

// ReadExclusive issues the overlaying-read-exclusive request (§4.3.3):
// it gains ownership of the line and notifies the listener once every
// other copy is invalidated — the hook the overlay framework uses to
// update all TLBs' OBitVectors without a shootdown.
func (d *Domain) ReadExclusive(core int, addr arch.PhysAddr, done func()) {
	if done == nil {
		done = func() {}
	}
	addr = addr.LineAligned()
	*d.readExcl++
	d.acquire(addr, func(release func()) {
		d.readExclusive(core, addr, func() { release(); done() })
	})
}

func (d *Domain) readExclusive(core int, addr arch.PhysAddr, done func()) {
	pc, line := d.pageFor(addr, true)
	e := &pc.dir[line]
	lat := d.cfg.L1Hit + d.cfg.DirLookup

	// Invalidate every other copy; each sharer costs one round.
	if e.owner >= 0 && int(e.owner) != core {
		if pc.state(int(e.owner), line) == Modified {
			d.mem.WriteBack(addr)
			*d.ownerWBs++
		}
		d.setState(pc, int(e.owner), addr, line, Invalid)
		lat += d.cfg.Forward
		e.owner = -1
	}
	invalidated := 0
	for c := 0; c < d.cfg.Cores; c++ {
		if c != core && e.sharers&(1<<uint(c)) != 0 {
			d.setState(pc, c, addr, line, Invalid)
			invalidated++
		}
	}
	if invalidated > 0 {
		lat += d.cfg.Invalidate // rounds overlap; one exposure
		*d.invals += uint64(invalidated)
	}
	e.sharers = 0

	needData := pc.state(core, line) == Invalid
	finish := func() {
		d.install(core, addr, Modified)
		e.owner = int8(core)
		e.sharers = 0
		if d.listener != nil {
			d.listener.OnReadExclusive(core, addr)
		}
		done()
	}
	if needData {
		d.engine.Schedule(lat, func() { d.mem.Fetch(addr, finish) })
	} else {
		d.engine.Schedule(lat, finish)
	}
}

// install places the line in core's L1 with the given state, handling
// evictions of displaced lines (write back Modified victims).
func (d *Domain) install(core int, addr arch.PhysAddr, s State) {
	ev, evicted := d.l1[core].Fill(addr, s == Modified)
	if evicted {
		d.dropLine(core, ev.Addr, ev.Dirty)
	}
	pc, line := d.pageFor(addr, true)
	d.setState(pc, core, addr, line, s)
}

// touch refreshes LRU state for a hit.
func (d *Domain) touch(core int, addr arch.PhysAddr, write bool) {
	d.l1[core].Lookup(addr, write)
}

// dropLine handles a capacity eviction from core's L1.
func (d *Domain) dropLine(core int, addr arch.PhysAddr, dirty bool) {
	if dirty {
		d.mem.WriteBack(addr)
	}
	pc, line := d.pageFor(addr, false)
	if pc == nil {
		return
	}
	pc.st[core*arch.LinesPerPage+line] = Invalid
	e := &pc.dir[line]
	e.sharers &^= 1 << uint(core)
	if int(e.owner) == core {
		e.owner = -1
	}
}

// setState updates both the state table and, for Invalid, the L1 tags.
func (d *Domain) setState(pc *pageCoh, core int, addr arch.PhysAddr, line int, s State) {
	pc.st[core*arch.LinesPerPage+line] = s
	if s == Invalid {
		d.l1[core].Invalidate(addr)
	}
}

// CheckInvariants verifies the single-writer/multi-reader property for
// every tracked line; tests call it after random operation storms.
func (d *Domain) CheckInvariants() error {
	for pn, pc := range d.pages {
		for line := 0; line < arch.LinesPerPage; line++ {
			owners, sharers := 0, 0
			for c := 0; c < d.cfg.Cores; c++ {
				switch pc.state(c, line) {
				case Modified, Exclusive:
					owners++
				case Shared:
					sharers++
				}
			}
			addr := arch.PhysAddr(pn<<arch.PageShift | uint64(line)<<arch.LineShift)
			if owners > 1 {
				return fmt.Errorf("coherence: line %#x has %d owners", uint64(addr), owners)
			}
			if owners == 1 && sharers > 0 {
				return fmt.Errorf("coherence: line %#x owned and shared", uint64(addr))
			}
		}
	}
	return nil
}
