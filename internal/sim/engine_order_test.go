package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// refEvent and refHeap form a reference scheduler: a plain binary heap
// ordered by (cycle, insertion sequence), the specification the
// calendar queue must match event for event.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSched mirrors the Engine's Schedule/At surface over the heap.
type refSched struct {
	now  Cycle
	seq  uint64
	heap refHeap
}

func (r *refSched) schedule(delay Cycle, id int) {
	heap.Push(&r.heap, refEvent{at: r.now + delay, seq: r.seq, id: id})
	r.seq++
}

func (r *refSched) at(cycle Cycle, id int) {
	heap.Push(&r.heap, refEvent{at: cycle, seq: r.seq, id: id})
	r.seq++
}

func (r *refSched) pop() (refEvent, bool) {
	if len(r.heap) == 0 {
		return refEvent{}, false
	}
	ev := heap.Pop(&r.heap).(refEvent)
	r.now = ev.at
	return ev, true
}

// TestCalendarMatchesReferenceHeap drives the calendar-queue engine and
// the reference heap with an identical randomized storm of interleaved
// Schedule/At calls — same-cycle delays, short in-window delays,
// bucket-wrap distances, and beyond-window delays that ride the
// overflow heap — and requires the two to execute events in exactly the
// same order. Executed events reschedule more work, so migration from
// the overflow heap back into buckets is exercised at many phases.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCA1E))
	delays := []Cycle{
		0, 0, 1, 2, 3, 7, 63, 64, 100, 1023,
		windowSize - 1, windowSize, windowSize + 1,
		2*windowSize + 17, 10 * windowSize,
	}

	e := NewEngine()
	ref := &refSched{}
	var got []int

	nextID := 0
	var spawn func(depth int) // schedules one event pair in both schedulers
	spawn = func(depth int) {
		id := nextID
		nextID++
		body := func() {
			got = append(got, id)
			// Half the executed events reschedule follow-up work, so the
			// storm interleaves scheduling with execution at many cycles.
			if depth > 0 && rng.Intn(2) == 0 {
				spawn(depth - 1)
			}
		}
		if rng.Intn(4) == 0 {
			// Absolute-time insertion.
			target := e.Now() + delays[rng.Intn(len(delays))]
			e.At(target, body)
			ref.at(target, id)
		} else {
			d := delays[rng.Intn(len(delays))]
			e.Schedule(d, body)
			ref.schedule(d, id)
		}
	}

	for i := 0; i < 2000; i++ {
		spawn(3)
	}
	for {
		// Pop the reference first so ref.now is current when the engine's
		// event body reschedules into both schedulers.
		rev, rok := ref.pop()
		ok := e.Step()
		if ok != rok {
			t.Fatalf("schedulers disagree on drain: engine=%v ref=%v after %d events", ok, rok, len(got))
		}
		if !ok {
			break
		}
		if e.Now() != rev.at {
			t.Fatalf("event %d: engine at cycle %d, reference at %d", len(got), e.Now(), rev.at)
		}
		if got[len(got)-1] != rev.id {
			t.Fatalf("event %d: engine ran id %d, reference expected %d", len(got), got[len(got)-1], rev.id)
		}
	}
	if nextID != len(got) {
		t.Fatalf("executed %d events, scheduled %d", len(got), nextID)
	}
}

// runTrace is what one drive of a seeded schedule observes: every event
// as id<<32|cycle in execution order, the final cycle, and the rows of
// the series the events attach and close.
type runTrace struct {
	order []uint64
	end   Cycle
	rows  [][]SeriesRow
}

// splitmix64 is a stateless hash, so an event's behaviour depends only
// on the seed and its id, never on how the engine is driven.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// runSchedule builds a seeded random schedule on a fresh engine and
// hands the engine to drive. Each event counts itself in "ev" and
// spawns up to three children at delays that mix delay-0 chains,
// in-window distances and overflow-heap distances. Events attach two
// series mid-cycle and close the first one mid-cycle.
func runSchedule(seed uint64, drive func(*Engine)) runTrace {
	delays := []Cycle{0, 0, 0, 1, 2, 5, 63, 64, 999, windowSize - 1, windowSize, windowSize + 1, 3*windowSize + 17}
	const maxEvents = 3000
	e := NewEngine()
	ev := e.Stats.Counter("ev")
	series := []*Series{NewSeries("a", 50, "ev"), NewSeries("b", 700, "ev")}
	attached := 0
	closed := false
	var tr runTrace
	nextID := uint64(0)
	var spawn func(delay Cycle)
	spawn = func(delay Cycle) {
		id := nextID
		nextID++
		e.Schedule(delay, func() {
			*ev++
			tr.order = append(tr.order, id<<32|uint64(e.Now()))
			h := splitmix64(seed<<32 ^ id)
			switch {
			case attached < len(series) && h%61 == 0:
				e.Attach(series[attached])
				attached++
			case attached > 0 && !closed && h%53 == 0:
				e.CloseSeries(series[0])
				closed = true
			}
			for n := h >> 8 & 3; n > 0 && nextID < maxEvents; n-- {
				h = splitmix64(h)
				spawn(delays[h%uint64(len(delays))])
			}
		})
	}
	for i := 0; i < 40; i++ {
		spawn(delays[splitmix64(seed^uint64(i)<<48)%uint64(len(delays))])
	}
	drive(e)
	if e.Pending() != 0 {
		panic("drive left events pending")
	}
	tr.end = e.Now()
	for _, s := range series {
		tr.rows = append(tr.rows, s.Rows())
	}
	return tr
}

// TestRunMatchesStep requires Run, RunUntil at random limits (stopping
// and resuming mid-cycle, interleaved with single Steps) and repeated
// Step to execute every seeded schedule identically: the same events in
// the same order at the same cycles, the same final cycle and the same
// series rows.
func TestRunMatchesStep(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		want := runSchedule(seed, func(e *Engine) {
			for e.Step() {
			}
		})
		if len(want.order) < 1000 {
			t.Fatalf("seed %d: only %d events; the schedule is too small to test", seed, len(want.order))
		}
		if len(want.rows[0]) == 0 || len(want.rows[1]) == 0 {
			t.Fatalf("seed %d: series rows %d/%d; both series must sample", seed, len(want.rows[0]), len(want.rows[1]))
		}
		run := runSchedule(seed, func(e *Engine) {
			if end := e.Run(); end != e.Now() {
				t.Fatalf("Run returned %d, clock at %d", end, e.Now())
			}
		})
		rng := rand.New(rand.NewSource(int64(seed)))
		until := runSchedule(seed, func(e *Engine) {
			for e.Pending() > 0 {
				if rng.Intn(4) == 0 {
					e.Step()
					continue
				}
				limit := e.Now() + Cycle(rng.Intn(3))*Cycle(rng.Intn(2*windowSize))
				e.RunUntil(limit)
				if e.Now() > limit {
					t.Fatalf("seed %d: RunUntil(%d) left the clock at %d", seed, limit, e.Now())
				}
				if at, ok := e.NextCycle(); ok && at <= limit {
					t.Fatalf("seed %d: RunUntil(%d) returned with an event due at %d", seed, limit, at)
				}
			}
		})
		for name, got := range map[string]runTrace{"Run": run, "RunUntil": until} {
			if !reflect.DeepEqual(got.order, want.order) {
				i := 0
				for i < len(got.order) && i < len(want.order) && got.order[i] == want.order[i] {
					i++
				}
				t.Fatalf("seed %d: %s diverges from Step at event %d of %d/%d",
					seed, name, i, len(got.order), len(want.order))
			}
			if got.end != want.end {
				t.Fatalf("seed %d: %s ends at cycle %d, Step at %d", seed, name, got.end, want.end)
			}
			if !reflect.DeepEqual(got.rows, want.rows) {
				t.Fatalf("seed %d: %s series rows differ from Step's:\n%v\n%v", seed, name, got.rows, want.rows)
			}
		}
	}
}
