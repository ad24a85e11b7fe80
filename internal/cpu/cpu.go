// Package cpu models the processor core of Table 2: a 2.67 GHz,
// single-issue, out-of-order core with a 64-entry instruction window.
// The core is trace-driven — it dispatches one instruction per cycle into
// the window, issues memory operations to its port of the memory system
// as they dispatch (so independent misses overlap, giving the
// memory-level parallelism the paper's copy-vs-overlay analysis hinges
// on), and retires instructions in order from the head of the window.
package cpu

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
)

// Kind is the class of a trace instruction.
type Kind uint8

const (
	// Compute is an ALU burst of N instructions, one cycle each.
	Compute Kind = iota
	// Load reads the cache line containing VA.
	Load
	// Store writes the cache line containing VA.
	Store
	// LoadOverlay reads the overlay cache line containing VA through the
	// overlay computation model (§5.2): the hardware iterates overlay
	// lines straight from the OMT's OBitVector, so the access skips the
	// TLB and addresses the Overlay Address Space directly.
	LoadOverlay
)

// Instr is one trace record. N is the burst length for Compute (≥ 1) and
// ignored for memory operations.
type Instr struct {
	Kind Kind
	VA   arch.VirtAddr
	N    int
}

// Trace supplies instructions. ok=false ends the program.
type Trace interface {
	Next() (Instr, bool)
}

// WindowSize is the instruction-window capacity (Table 2).
const WindowSize = 64

// ringMask extracts a ring index from a completion argument's low bits.
const ringMask = WindowSize - 1

type slot struct {
	count       int  // instructions this slot retires as
	done        bool // completed execution
	outstanding bool // memory op in flight
}

// Core is one simulated CPU. The instruction window is a fixed ring of
// slot values addressed by dispatch order; completion events are
// pre-bound continuations carrying the ring index, so the steady-state
// dispatch/retire loop performs no allocations.
type Core struct {
	engine *sim.Engine
	port   *core.Port
	pid    arch.PID
	trace  Trace

	window    [WindowSize]slot
	head      uint64 // dispatch number of the window's oldest slot
	tail      uint64 // dispatch number of the next slot to fill
	fetched   uint64 // trace records consumed over the core's lifetime
	retired   uint64
	limit     uint64
	started   sim.Cycle
	finished  sim.Cycle
	running   bool
	exhausted bool
	onDone    func()
	ticking   bool

	tickCont      sim.Cont     // clears ticking, then ticks
	computeDoneFn sim.ArgEvent // arg = dispatch number
	memDoneFn     sim.ArgEvent // arg = dispatch number
}

// New creates a core executing trace on behalf of process pid through the
// given memory port.
func New(engine *sim.Engine, port *core.Port, pid arch.PID, trace Trace) *Core {
	c := &Core{engine: engine, port: port, pid: pid, trace: trace}
	c.tickCont = sim.ContOf(func() {
		c.ticking = false
		c.tick()
	})
	// Completions carry the instruction's dispatch number, which is
	// monotonic across runs (a limit-based finish can leave completions in
	// flight that drain during the next run, exactly as the window's
	// leftover contents carry over). A ring slot is only reused once its
	// instruction retires, and retiring requires the completion to have
	// fired, so the dispatch number's ring index always names the right
	// in-flight slot.
	c.computeDoneFn = func(arg uint64) {
		c.window[arg&ringMask].done = true
		c.scheduleTick(0)
	}
	c.memDoneFn = func(arg uint64) {
		s := &c.window[arg&ringMask]
		s.outstanding = false
		s.done = true
		c.scheduleTick(0)
	}
	return c
}

// size returns the window occupancy.
func (c *Core) size() int { return int(c.tail - c.head) }

// headSlot returns the oldest dispatched slot.
func (c *Core) headSlot() *slot { return &c.window[c.head%WindowSize] }

// Run starts execution and stops once `limit` instructions have retired
// (or the trace ends). onDone fires at completion. Drive the engine
// (engine.Run or RunUntil) to make progress.
func (c *Core) Run(limit uint64, onDone func()) {
	if c.running {
		panic("cpu: core already running")
	}
	c.running = true
	c.exhausted = false
	c.retired = 0
	c.limit = limit
	c.onDone = onDone
	c.started = c.engine.Now()
	c.scheduleTick(0)
}

// Retired returns instructions retired in the current/last run.
func (c *Core) Retired() uint64 { return c.retired }

// Fetched returns the number of trace records consumed over the core's
// lifetime. A forked core replays this many records of a fresh trace to
// reposition it before restoring window state.
func (c *Core) Fetched() uint64 { return c.fetched }

// Cycles returns the cycles consumed by the last completed run.
func (c *Core) Cycles() sim.Cycle { return c.finished - c.started }

// CPI returns cycles per instruction for the last completed run.
func (c *Core) CPI() float64 {
	if c.retired == 0 {
		return 0
	}
	return float64(c.finished-c.started) / float64(c.retired)
}

// Running reports whether the core still has work.
func (c *Core) Running() bool { return c.running }

func (c *Core) scheduleTick(delay sim.Cycle) {
	if c.ticking {
		return
	}
	c.ticking = true
	c.engine.ScheduleCont(delay, c.tickCont)
}

func (c *Core) tick() {
	if !c.running {
		return
	}
	// Retire from the head, in order; one slot per cycle (a compute burst
	// retires as a unit — it spent its N cycles executing).
	if c.size() > 0 && c.headSlot().done {
		c.retired += uint64(c.headSlot().count)
		c.head++
	}
	if c.limitReached() {
		c.finish()
		return
	}

	// Dispatch one instruction per cycle into the window.
	if c.size() < WindowSize && !c.exhausted {
		instr, ok := c.trace.Next()
		if !ok {
			c.exhausted = true
		} else {
			c.fetched++
			c.dispatch(instr)
		}
	}
	if c.exhausted && c.size() == 0 {
		c.finish()
		return
	}

	// Keep ticking while forward progress is possible next cycle; when the
	// core is stalled (window full or drained, head incomplete), sleep
	// until a completion callback re-arms the tick.
	canDispatch := c.size() < WindowSize && !c.exhausted
	canRetire := c.size() > 0 && c.headSlot().done
	if canDispatch || canRetire {
		c.scheduleTick(1)
	}
}

func (c *Core) limitReached() bool { return c.limit > 0 && c.retired >= c.limit }

func (c *Core) finish() {
	if !c.running {
		return
	}
	c.running = false
	c.finished = c.engine.Now()
	c.engine.Stats.Add("cpu.instructions", c.retired)
	if c.onDone != nil {
		c.onDone()
	}
}

func (c *Core) dispatch(instr Instr) {
	idx := c.tail % WindowSize
	s := &c.window[idx]
	*s = slot{count: 1}
	arg := c.tail
	c.tail++
	switch instr.Kind {
	case Compute:
		n := instr.N
		if n < 1 {
			n = 1
		}
		s.count = n
		c.engine.ScheduleArg(sim.Cycle(n), c.computeDoneFn, arg)
	case Load:
		s.outstanding = true
		c.port.ReadCont(c.pid, instr.VA, sim.Bind(c.memDoneFn, arg))
	case LoadOverlay:
		s.outstanding = true
		c.port.ReadOverlayCont(c.pid, instr.VA, sim.Bind(c.memDoneFn, arg))
	case Store:
		s.outstanding = true
		c.port.WriteCont(c.pid, instr.VA, sim.Bind(c.memDoneFn, arg))
	default:
		panic("cpu: unknown instruction kind")
	}
}

// SliceTrace adapts a []Instr to the Trace interface.
type SliceTrace struct {
	instrs []Instr
	pos    int
}

// NewSliceTrace wraps a fixed instruction sequence.
func NewSliceTrace(instrs []Instr) *SliceTrace { return &SliceTrace{instrs: instrs} }

// Next implements Trace.
func (t *SliceTrace) Next() (Instr, bool) {
	if t.pos >= len(t.instrs) {
		return Instr{}, false
	}
	i := t.instrs[t.pos]
	t.pos++
	return i, true
}

// FuncTrace adapts a generator function to the Trace interface.
type FuncTrace func() (Instr, bool)

// Next implements Trace.
func (f FuncTrace) Next() (Instr, bool) { return f() }
