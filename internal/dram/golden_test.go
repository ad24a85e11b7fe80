package dram

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_trace.txt")

// goldenCounters are the controller's counters, in the order the golden
// file lists them.
var goldenCounters = []string{
	"dram.reads",
	"dram.writes",
	"dram.write_buffer_forwards",
	"dram.write_drains",
	"dram.row_hits",
	"dram.row_closed",
	"dram.row_conflicts",
}

// goldenTraffic drives one seeded mix of read bursts, write bursts and
// RunUntil windows through a fresh controller and renders every read's
// completion cycle plus the final counters and histogram sums. Addresses
// fall in 4 rows of each bank, so row hits, conflicts and closed-bank
// activations all occur. Bursts of up to 48 reads and 80 writes outpace
// the RunUntil windows, so the read queue grows past 100 requests and
// the 64-entry write buffer fills and drains repeatedly; the header line
// records the deepest queues seen.
func goldenTraffic(seed int64) []byte {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	c := New(e, cfg)
	rng := rand.New(rand.NewSource(seed))
	linesPerRow := uint64(cfg.RowBytes / arch.LineSize)
	banks := uint64(cfg.Banks)
	addr := func() arch.PhysAddr {
		bank, row, col := uint64(rng.Intn(cfg.Banks)), uint64(rng.Intn(4)), uint64(rng.Intn(32))
		return lineAddr((row*banks+bank)*linesPerRow + col)
	}

	var doneAt []sim.Cycle
	complete := func(id uint64) { doneAt[id] = e.Now() }
	read := func(a arch.PhysAddr) {
		doneAt = append(doneAt, 0)
		c.ReadCont(a, sim.Bind(complete, uint64(len(doneAt)-1)))
	}
	var lastWrite arch.PhysAddr
	var maxReads, maxWrites int
	for op := 0; op < 120; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // read burst, occasionally re-reading the last write
			for n := 1 + rng.Intn(48); n > 0; n-- {
				if rng.Intn(16) == 0 {
					read(lastWrite)
				} else {
					read(addr())
				}
			}
		case k < 7: // write burst
			for n := 1 + rng.Intn(80); n > 0; n-- {
				lastWrite = addr()
				c.Write(lastWrite, nil)
			}
		default:
			e.RunUntil(e.Now() + sim.Cycle(rng.Intn(4000)))
		}
		maxReads = max(maxReads, len(c.readQ))
		maxWrites = max(maxWrites, len(c.writeBuf))
	}
	end := e.Run()

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "seed %d end %d pending %d max_read_queue %d max_write_buffer %d\n",
		seed, end, c.Pending(), maxReads, maxWrites)
	for _, name := range goldenCounters {
		fmt.Fprintf(&buf, "%s %d\n", name, e.Stats.Get(name))
	}
	for _, h := range []*sim.Histogram{c.queueLat, c.readLat} {
		fmt.Fprintf(&buf, "%s count %d sum %d\n", h.Name(), h.Count(), h.Sum())
	}
	for id, at := range doneAt {
		fmt.Fprintf(&buf, "read %d done %d\n", id, at)
	}
	return buf.Bytes()
}

// TestGoldenTrace pins the controller's exact timing: every read's
// completion cycle and every counter over seeded mixed traffic must
// match testdata/golden_trace.txt byte for byte. A scheduler rewrite
// that changes any FR-FCFS pick, drain or bank timeline fails here.
// Re-record after an intended timing-model change with -update.
func TestGoldenTrace(t *testing.T) {
	var got []byte
	for _, seed := range []int64{1, 2, 3} {
		got = append(got, goldenTraffic(seed)...)
	}
	path := filepath.Join("testdata", "golden_trace.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}
