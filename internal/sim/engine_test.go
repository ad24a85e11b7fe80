package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	end := e.Run()
	if end != 20 {
		t.Fatalf("final cycle = %d, want 20", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events ran out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Cycle
	e.Schedule(3, func() {
		trace = append(trace, e.Now())
		e.Schedule(4, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 3 || trace[1] != 7 {
		t.Fatalf("trace = %v, want [3 7]", trace)
	}
}

func TestZeroDelayRunsThisCycle(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func() {
		e.Schedule(0, func() {
			if e.Now() != 5 {
				t.Errorf("zero-delay event at cycle %d, want 5", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Cycle
	for _, d := range []Cycle{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want events at 5 and 10 only", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("after Run, ran %v", ran)
	}
}

func TestAtPanicsOnPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

func TestEventOrderProperty(t *testing.T) {
	// Property: for any set of delays, events fire in nondecreasing time
	// order and the engine visits exactly len(delays) events.
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		for _, d := range raw {
			e.Schedule(Cycle(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Inc("a")
	s.Add("a", 4)
	s.Add("b", 2)
	if s.Get("a") != 5 || s.Get("b") != 2 || s.Get("missing") != 0 {
		t.Fatalf("counters wrong: %v", s.Snapshot())
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	snap := s.Snapshot()
	s.Inc("a")
	if snap["a"] != 5 {
		t.Fatal("Snapshot must copy")
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
	s.Reset()
	if s.Get("a") != 0 || len(s.Names()) != 0 {
		t.Fatal("Reset failed")
	}
}
