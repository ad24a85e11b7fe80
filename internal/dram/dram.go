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
// The controller is allocation-free in steady state: requests live in one
// slab recycled through an int32 free list and both queues hold slab
// indices, the bank/row decode is computed once at enqueue, the
// write-buffer membership check counts lines in a flat sim.LineTable
// instead of a Go map, and the scheduler's self-wakeup events are
// continuations bound once at construction.
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
	reqs      []request     // slab; readQ and writeBuf hold indices into it
	freeReq   []int32       // indices of unused requests
	readQ     []int32       // queued reads in arrival order
	writeBuf  []int32       // buffered writes in arrival order
	pendingWr sim.LineTable // line number → count in write buffer
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

// newRequest takes an unused request from the slab, fills it in with
// the current cycle as its arrival and returns its index.
func (c *Controller) newRequest(addr arch.PhysAddr, write bool, done sim.Cont) int32 {
	var i int32
	if n := len(c.freeReq); n > 0 {
		i = c.freeReq[n-1]
		c.freeReq = c.freeReq[:n-1]
	} else {
		c.reqs = append(c.reqs, request{})
		i = int32(len(c.reqs) - 1)
	}
	r := &c.reqs[i]
	r.addr, r.write, r.arrival, r.done = addr, write, c.engine.Now(), done
	r.bank, r.row = c.mapAddr(addr)
	return i
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
	c.readQ = append(c.readQ, c.newRequest(addr, false, done))
	c.kick()
}

// Write enqueues a line write-back. It completes immediately from the
// caller's perspective; the controller drains the buffer per FR-FCFS
// drain-when-full.
func (c *Controller) Write(addr arch.PhysAddr, done func()) {
	addr = addr.LineAligned()
	*c.writes++
	c.writeBuf = append(c.writeBuf, c.newRequest(addr, true, sim.Cont{}))
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

// issue picks one request per FR-FCFS (row hits first, then oldest) and
// assigns it a bank/bus timeline, then reschedules itself for when the
// channel can accept the next request. It serves the read queue unless
// the write buffer is draining, or writes opportunistically when no
// reads are waiting.
//
// Both queues are appended with arrival = Now() and removal keeps their
// order, so queue order is arrival order: the oldest row hit is the
// first one in the queue, and with no row hit the oldest request is the
// head.
func (c *Controller) issue() {
	q := &c.readQ
	if c.draining || len(c.readQ) == 0 {
		q = &c.writeBuf
	}
	pool := *q
	if len(pool) == 0 {
		c.draining = false
		return
	}
	now := c.engine.Now()
	best := 0
	for i, ri := range pool {
		if r := &c.reqs[ri]; c.banks[r.bank].openRow == r.row {
			best = i
			break
		}
	}
	ri := pool[best]
	*q = append(pool[:best], pool[best+1:]...)

	r := &c.reqs[ri]
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

	if r.write {
		line := uint64(r.addr) >> arch.LineShift
		if n, _ := c.pendingWr.Get(line); n > 1 {
			c.pendingWr.Put(line, n-1)
		} else {
			c.pendingWr.Take(line)
		}
		if len(c.writeBuf) == 0 {
			c.draining = false
		}
	} else {
		c.queueLat.Observe(uint64(now - r.arrival))
		c.readLat.Observe(uint64(finish - r.arrival))
		c.engine.AtCont(finish, r.done)
		r.done = sim.Cont{}
	}
	c.freeReq = append(c.freeReq, ri)

	// The command bus can issue the next command shortly after this one,
	// letting other banks overlap their activations with this data burst.
	c.engine.ScheduleCont(c.cfg.TCmd, c.issueCont)
}

func maxCycle(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}
