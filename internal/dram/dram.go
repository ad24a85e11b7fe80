// Package dram models the main-memory controller and DDR3-1066 timing of
// Table 2: a single channel/rank with 8 banks and 8 KB row buffers, an
// open-row policy, FR-FCFS scheduling with a 64-entry write buffer drained
// when full, and an 8-byte data bus with burst length 8 (one 64 B cache
// line per burst).
//
// The model is event-driven: callers enqueue line-granularity read/write
// requests; reads complete through a callback once the scheduler has
// issued them and the data burst finishes, writes complete immediately at
// acceptance (they are write-backs, off the critical path) and drain in
// the background.
//
// The controller is allocation-free in steady state: request structs are
// recycled through a free list, the bank/row decode is computed once at
// enqueue, the write-buffer membership check counts lines in a flat
// sim.LineTable instead of a Go map, and the scheduler's self-wakeup
// events are continuations bound once at construction.
package dram

import (
	"repro/internal/arch"
	"repro/internal/sim"
)

// Config holds controller geometry and timing. All latencies are in CPU
// cycles (2.67 GHz core, 533 MHz DDR3-1066 bus ⇒ 5 CPU cycles per bus
// cycle).
type Config struct {
	Banks        int       // banks per rank
	RowBytes     int       // row-buffer size in bytes
	WriteBufCap  int       // write-buffer entries; drain triggers when full
	TRCD         sim.Cycle // activate → column command
	TCL          sim.Cycle // column command → first data
	TRP          sim.Cycle // precharge
	TBurst       sim.Cycle // data burst occupancy of the channel
	TCmd         sim.Cycle // command-bus gap between successive commands
	WBForwardLat sim.Cycle // latency of a read forwarded from the write buffer
}

// DefaultConfig returns the Table 2 configuration: DDR3-1066 (CL 7),
// 1 channel, 1 rank, 8 banks, 8 KB row buffer, 64-entry write buffer.
func DefaultConfig() Config {
	return Config{
		Banks:        8,
		RowBytes:     8192,
		WriteBufCap:  64,
		TRCD:         35,
		TCL:          35,
		TRP:          35,
		TBurst:       20,
		TCmd:         5,
		WBForwardLat: 20,
	}
}

type request struct {
	addr    arch.PhysAddr // line-aligned main-memory address
	bank    int           // decoded once at enqueue
	row     int64
	write   bool
	arrival sim.Cycle
	done    sim.Cont
}

type bank struct {
	openRow    int64     // -1 when no row is open
	readyAt    sim.Cycle // when the open row can accept column commands
	lastFinish sim.Cycle // when the bank's last data burst completes
}

// Controller is the memory controller front end.
type Controller struct {
	cfg       Config
	engine    *sim.Engine
	banks     []bank
	readQ     []*request
	writeBuf  []*request
	pendingWr sim.LineTable // line number → count in write buffer
	freeReq   []*request
	busFreeAt sim.Cycle
	draining  bool
	kicked    bool // an issue event is already scheduled for this cycle

	kickCont  sim.Cont // clears kicked, then issues
	issueCont sim.Cont // scheduler self-wakeup

	queueLat *sim.Histogram // read queueing delay: arrival → scheduler pick
	readLat  *sim.Histogram // read service latency: arrival → data burst end

	reads      *uint64
	writes     *uint64
	wbForwards *uint64
	wbDrains   *uint64
	rowHits    *uint64
	rowClosed  *uint64
	rowConfl   *uint64
}

// New creates a controller attached to the engine.
func New(engine *sim.Engine, cfg Config) *Controller {
	if cfg.Banks <= 0 || cfg.RowBytes <= 0 {
		panic("dram: invalid config")
	}
	banks := make([]bank, cfg.Banks)
	for i := range banks {
		banks[i].openRow = -1
	}
	c := &Controller{
		cfg:        cfg,
		engine:     engine,
		banks:      banks,
		queueLat:   engine.Stats.Histogram("dram.read_queue_cycles"),
		readLat:    engine.Stats.Histogram("dram.read_cycles"),
		reads:      engine.Stats.Counter("dram.reads"),
		writes:     engine.Stats.Counter("dram.writes"),
		wbForwards: engine.Stats.Counter("dram.write_buffer_forwards"),
		wbDrains:   engine.Stats.Counter("dram.write_drains"),
		rowHits:    engine.Stats.Counter("dram.row_hits"),
		rowClosed:  engine.Stats.Counter("dram.row_closed"),
		rowConfl:   engine.Stats.Counter("dram.row_conflicts"),
	}
	c.kickCont = sim.ContOf(func() {
		c.kicked = false
		c.issue()
	})
	c.issueCont = sim.ContOf(c.issue)
	return c
}

func (c *Controller) newRequest() *request {
	if n := len(c.freeReq); n > 0 {
		r := c.freeReq[n-1]
		c.freeReq[n-1] = nil
		c.freeReq = c.freeReq[:n-1]
		return r
	}
	return new(request)
}

func (c *Controller) freeRequest(r *request) {
	r.done = sim.Cont{}
	c.freeReq = append(c.freeReq, r)
}

// linesPerRow returns how many cache lines one row buffer holds.
func (c *Controller) linesPerRow() uint64 { return uint64(c.cfg.RowBytes / arch.LineSize) }

// mapAddr splits a line-aligned address into (bank, row). Columns within a
// row are contiguous so streaming accesses produce row-buffer hits.
func (c *Controller) mapAddr(addr arch.PhysAddr) (bankIdx int, row int64) {
	lineNum := uint64(addr) >> arch.LineShift
	colBits := lineNum / c.linesPerRow()
	bankIdx = int(colBits % uint64(c.cfg.Banks))
	row = int64(colBits / uint64(c.cfg.Banks))
	return bankIdx, row
}

// Read enqueues a line read; done fires when the data burst completes.
func (c *Controller) Read(addr arch.PhysAddr, done func()) {
	c.ReadCont(addr, sim.ContOf(done))
}

// ReadCont is the continuation form of Read.
func (c *Controller) ReadCont(addr arch.PhysAddr, done sim.Cont) {
	addr = addr.LineAligned()
	*c.reads++
	if _, ok := c.pendingWr.Get(uint64(addr) >> arch.LineShift); ok {
		// Forward from the write buffer: the youngest matching write holds
		// the data, no DRAM access needed.
		*c.wbForwards++
		c.queueLat.Observe(0)
		c.readLat.Observe(uint64(c.cfg.WBForwardLat))
		c.engine.ScheduleCont(c.cfg.WBForwardLat, done)
		return
	}
	r := c.newRequest()
	r.addr, r.write, r.arrival, r.done = addr, false, c.engine.Now(), done
	r.bank, r.row = c.mapAddr(addr)
	c.readQ = append(c.readQ, r)
	c.kick()
}

// Write enqueues a line write-back. It completes immediately from the
// caller's perspective; the controller drains the buffer per FR-FCFS
// drain-when-full.
func (c *Controller) Write(addr arch.PhysAddr, done func()) {
	addr = addr.LineAligned()
	*c.writes++
	r := c.newRequest()
	r.addr, r.write, r.arrival, r.done = addr, true, c.engine.Now(), sim.Cont{}
	r.bank, r.row = c.mapAddr(addr)
	c.writeBuf = append(c.writeBuf, r)
	line := uint64(addr) >> arch.LineShift
	n, _ := c.pendingWr.Get(line)
	c.pendingWr.Put(line, n+1)
	if len(c.writeBuf) >= c.cfg.WriteBufCap {
		if !c.draining {
			*c.wbDrains++
		}
		c.draining = true
	}
	if done != nil {
		c.engine.Schedule(0, done)
	}
	c.kick()
}

// Pending reports the number of requests not yet issued.
func (c *Controller) Pending() int { return len(c.readQ) + len(c.writeBuf) }

func (c *Controller) kick() {
	if c.kicked {
		return
	}
	c.kicked = true
	c.engine.ScheduleCont(0, c.kickCont)
}

// pool selects which queue the scheduler serves this round: reads unless
// we are draining, or opportunistically writes when no reads are waiting.
func (c *Controller) pool() []*request {
	if c.draining {
		return c.writeBuf
	}
	if len(c.readQ) == 0 && len(c.writeBuf) > 0 {
		return c.writeBuf
	}
	return c.readQ
}

// issue picks one request per FR-FCFS (row hits first, then oldest) and
// assigns it a bank/bus timeline, then reschedules itself for when the
// channel can accept the next request.
func (c *Controller) issue() {
	pool := c.pool()
	if len(pool) == 0 {
		if c.draining && len(c.writeBuf) == 0 {
			c.draining = false
		}
		return
	}
	now := c.engine.Now()
	best := -1
	bestHit := false
	for i, r := range pool {
		hit := c.banks[r.bank].openRow == r.row
		if best == -1 {
			best, bestHit = i, hit
			continue
		}
		if hit && !bestHit {
			best, bestHit = i, hit
		} else if hit == bestHit && r.arrival < pool[best].arrival {
			best = i
		}
	}

	r := pool[best]
	b := &c.banks[r.bank]

	// Column commands to an open row pipeline behind each other (data
	// bursts are the limiter); activations and precharges must wait for
	// the bank's previous data burst to finish.
	var rowReady sim.Cycle
	switch {
	case b.openRow == r.row:
		rowReady = maxCycle(now, b.readyAt)
		*c.rowHits++
	case b.openRow == -1:
		rowReady = maxCycle(now, b.lastFinish) + c.cfg.TRCD
		b.readyAt = rowReady
		*c.rowClosed++
	default:
		rowReady = maxCycle(now, b.lastFinish) + c.cfg.TRP + c.cfg.TRCD
		b.readyAt = rowReady
		*c.rowConfl++
	}
	dataStart := maxCycle(rowReady+c.cfg.TCL, c.busFreeAt)
	finish := dataStart + c.cfg.TBurst
	b.openRow = r.row
	b.lastFinish = finish
	c.busFreeAt = finish

	c.remove(pool, best)

	if r.write {
		line := uint64(r.addr) >> arch.LineShift
		if n, _ := c.pendingWr.Get(line); n > 1 {
			c.pendingWr.Put(line, n-1)
		} else {
			c.pendingWr.Take(line)
		}
		if c.draining && len(c.writeBuf) == 0 {
			c.draining = false
		}
		c.freeRequest(r)
	} else {
		c.queueLat.Observe(uint64(now - r.arrival))
		c.readLat.Observe(uint64(finish - r.arrival))
		c.engine.AtCont(finish, r.done)
		c.freeRequest(r)
	}

	// The command bus can issue the next command shortly after this one,
	// letting other banks overlap their activations with this data burst.
	c.engine.ScheduleCont(c.cfg.TCmd, c.issueCont)
}

// remove deletes index i from whichever queue pool aliases.
func (c *Controller) remove(pool []*request, i int) {
	target := pool[i]
	if len(c.readQ) > 0 && sliceContainsAt(c.readQ, target, i) {
		c.readQ = removeAt(c.readQ, i)
		return
	}
	c.writeBuf = removeAt(c.writeBuf, i)
}

// removeAt deletes index i preserving order, clearing the vacated tail
// slot so recycled requests are not retained through the queue's backing
// array.
func removeAt(q []*request, i int) []*request {
	n := len(q)
	copy(q[i:], q[i+1:])
	q[n-1] = nil
	return q[:n-1]
}

func sliceContainsAt(q []*request, r *request, i int) bool {
	return i < len(q) && q[i] == r
}

func maxCycle(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}
