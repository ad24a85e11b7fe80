// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (§5), plus ablation benches
// for the design choices DESIGN.md calls out. The benchmarks report the
// paper's headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates a compact, comparable version of every result. The
// full-size sweeps live behind `overlaysim` (see README).
package repro

import (
	"context"
	"io"
	"testing"

	"fmt"
	"repro/internal/arch"
	"repro/internal/cache"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/system"
	"repro/internal/techniques/checkpoint"
	"repro/internal/techniques/dedup"
	"repro/internal/techniques/speculation"
	"repro/internal/workload"
)

// BenchmarkTable2Config measures system construction (the full Table 2
// machine: caches, TLBs, DRAM, OMT, OMS) and prints nothing.
func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := core.New(system.Default())
		if err != nil {
			b.Fatal(err)
		}
		system.Describe(io.Discard, f.Config)
	}
}

// forkPair runs one benchmark under both mechanisms at bench scale.
func forkPair(b *testing.B, name string) exp.ForkResult {
	b.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	r, err := exp.RunForkBenchmark(context.Background(), spec, exp.QuickForkParams())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFigure8ForkMemory regenerates Figure 8's comparison for one
// representative benchmark per write-working-set type, reporting the
// memory reduction overlay-on-write achieves over copy-on-write.
func BenchmarkFigure8ForkMemory(b *testing.B) {
	for _, name := range []string{"hmmer", "lbm", "mcf"} {
		b.Run(name, func(b *testing.B) {
			var reduction float64
			for i := 0; i < b.N; i++ {
				r := forkPair(b, name)
				reduction = r.MemoryReduction()
			}
			b.ReportMetric(100*reduction, "%mem-reduction")
		})
	}
}

// BenchmarkFigure9ForkCPI regenerates Figure 9's CPI comparison,
// reporting the overlay-on-write speedup.
func BenchmarkFigure9ForkCPI(b *testing.B) {
	for _, name := range []string{"hmmer", "cactus", "lbm", "mcf"} {
		b.Run(name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				r := forkPair(b, name)
				speedup = r.Speedup()
			}
			b.ReportMetric(100*(speedup-1), "%speedup")
		})
	}
}

// BenchmarkFigure10SpMV regenerates Figure 10 at three points of the L
// axis (the two extremes plus the crossover region), reporting overlay
// performance and memory relative to CSR.
func BenchmarkFigure10SpMV(b *testing.B) {
	specs := sparse.SuiteSpecs()
	picks := map[string]sparse.SuiteSpec{
		"lowL":  specs[0],
		"midL":  specs[sparse.SuiteSize/2],
		"highL": specs[sparse.SuiteSize-1],
	}
	for label, spec := range picks {
		spec := spec
		b.Run(label, func(b *testing.B) {
			var r exp.SpMVResult
			for i := 0; i < b.N; i++ {
				m := spec.Build()
				var err error
				r, err = exp.RunSpMV(m, false)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.RelPerf(), "x-perf-vs-csr")
			b.ReportMetric(r.RelMem(), "x-mem-vs-csr")
			b.ReportMetric(r.L, "L")
		})
	}
}

// BenchmarkFigure11LineSize regenerates Figure 11 (analytic), reporting
// the mean page-granularity overhead over ideal (the paper's 53×).
func BenchmarkFigure11LineSize(b *testing.B) {
	var mean4k float64
	for i := 0; i < b.N; i++ {
		results, err := exp.RunFigure11Pool(context.Background(), exp.Pool{Parallel: 1}, 12)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range results {
			sum += r.Overheads[4096]
		}
		mean4k = sum / float64(len(results))
	}
	b.ReportMetric(mean4k, "x-4KB-overhead-vs-ideal")
}

// BenchmarkSparsitySweepVsDense regenerates the §5.2 in-text sweep,
// reporting the overlay speedup over the dense representation at the
// sparsest point.
func BenchmarkSparsitySweepVsDense(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		results, err := exp.RunSparsitySweepPool(context.Background(), exp.Pool{Parallel: 1}, 4, 128)
		if err != nil {
			b.Fatal(err)
		}
		speedup = results[len(results)-1].Speedup()
	}
	b.ReportMetric(speedup, "x-vs-dense-at-max-sparsity")
}

// --- Table 1 techniques -------------------------------------------------

func newBenchFW(b *testing.B) *core.Framework {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.MemoryPages = 8192
	f, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkTable1OverlayOnWrite measures a single overlaying write (the
// §2.2 primitive) end to end, against the conventional COW page fault.
func BenchmarkTable1OverlayOnWrite(b *testing.B) {
	for _, overlay := range []bool{true, false} {
		name := "overlay"
		if !overlay {
			name = "cow"
		}
		b.Run(name, func(b *testing.B) {
			var cycles sim.Cycle
			for i := 0; i < b.N; i++ {
				f := newBenchFW(b)
				parent := f.VM.NewProcess()
				if err := f.VM.MapAnon(parent, 0, 1); err != nil {
					b.Fatal(err)
				}
				f.Fork(parent, overlay)
				port := f.NewPort()
				start := f.Engine.Now()
				port.Write(parent.PID, 0, nil)
				f.Engine.Run()
				cycles = f.Engine.Now() - start
			}
			b.ReportMetric(float64(cycles), "cycles/first-write")
		})
	}
}

// BenchmarkTable1Dedup measures folding a near-duplicate page.
func BenchmarkTable1Dedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := newBenchFW(b)
		p := f.VM.NewProcess()
		if err := f.VM.MapAnon(p, 0, 2); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, arch.PageSize)
		for j := range buf {
			buf[j] = 7
		}
		f.Store(p.PID, 0, buf)
		buf[100] = 9
		f.Store(p.PID, arch.PageSize, buf)
		d := dedup.New(f, 8)
		ok, err := d.Fold(dedup.Page{Proc: p, VPN: 0}, dedup.Page{Proc: p, VPN: 1})
		if err != nil || !ok {
			b.Fatalf("fold: %v %v", ok, err)
		}
	}
}

// BenchmarkTable1Checkpoint measures one overlay checkpoint of a region
// with a sparse dirty set, reporting the bandwidth saving over
// page-granularity checkpointing.
func BenchmarkTable1Checkpoint(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		f := newBenchFW(b)
		p := f.VM.NewProcess()
		if err := f.VM.MapAnon(p, 0, 64); err != nil {
			b.Fatal(err)
		}
		c := checkpoint.New(f, p, 0, 64)
		if err := c.Begin(); err != nil {
			b.Fatal(err)
		}
		for pg := 0; pg < 64; pg++ {
			f.Store(p.PID, arch.VirtAddr(pg)*arch.PageSize, []byte{1})
		}
		cp, err := c.Take()
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(cp.FullPageBytes()) / float64(cp.Bytes())
	}
	b.ReportMetric(ratio, "x-bandwidth-saved")
}

// BenchmarkTable1Speculation measures begin/commit of an overlay-buffered
// speculative region.
func BenchmarkTable1Speculation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := newBenchFW(b)
		p := f.VM.NewProcess()
		if err := f.VM.MapAnon(p, 0, 8); err != nil {
			b.Fatal(err)
		}
		vpns := []arch.VPN{0, 1, 2, 3, 4, 5, 6, 7}
		r, err := speculation.Begin(f, p, vpns)
		if err != nil {
			b.Fatal(err)
		}
		for l := 0; l < 8*arch.LinesPerPage; l++ {
			f.Store(p.PID, arch.VirtAddr(l*arch.LineSize), []byte{1})
		}
		if err := r.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationOverlayPrefetch compares the overlay SpMV with and
// without the OBitVector-walking prefetcher (Prefetch.Distance = 0) on a
// suite matrix whose overlay lines scatter across pages — the case where
// the walker, not the instruction window, must supply the lookahead.
func BenchmarkAblationOverlayPrefetch(b *testing.B) {
	spec := sparse.SuiteSpecs()[sparse.SuiteSize/2]
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m := spec.Build()
				cfg := core.DefaultConfig()
				cfg.MemoryPages = m.DenseBytes()/arch.PageSize + 16384
				if !on {
					cfg.Prefetch.Distance = 0
					cfg.Prefetch.Degree = 0
				}
				c, err := runOverlaySpMV(cfg, m)
				if err != nil {
					b.Fatal(err)
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "cycles/iter")
		})
	}
}

// BenchmarkAblationRemapVsShootdown sweeps the single-line remap cost
// from the coherence-based update (50 cycles) up to a full shootdown
// (4000 cycles), quantifying §4.3.3's coherence optimisation.
func BenchmarkAblationRemapVsShootdown(b *testing.B) {
	for _, c := range []struct {
		name  string
		remap sim.Cycle
	}{{"coherence-update", 50}, {"full-shootdown", 4000}} {
		b.Run(c.name, func(b *testing.B) {
			var cpi float64
			for i := 0; i < b.N; i++ {
				spec, err := workload.ByName("mcf")
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.MemoryPages = spec.Pages*2 + 16384
				cfg.OverlayRemapLatency = c.remap
				cpi, err = exp.RunForkCPI(spec, cfg, exp.QuickForkParams(), true)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cpi, "cpi")
		})
	}
}

// BenchmarkAblationL3Replacement compares DRRIP (Table 2) against plain
// LRU at the L3 on a streaming, cache-thrashing fork benchmark — the
// scan-resistance DRRIP was designed for.
func BenchmarkAblationL3Replacement(b *testing.B) {
	for _, drrip := range []bool{true, false} {
		name := "drrip"
		if !drrip {
			name = "lru"
		}
		b.Run(name, func(b *testing.B) {
			var cpi float64
			for i := 0; i < b.N; i++ {
				spec, err := workload.ByName("lbm")
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.MemoryPages = spec.Pages*2 + 16384
				if !drrip {
					cfg.Cache.L3.Policy = cache.LRU
				}
				cpi, err = exp.RunForkCPI(spec, cfg, exp.QuickForkParams(), true)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cpi, "cpi")
		})
	}
}

func runOverlaySpMV(cfg core.Config, m *sparse.Matrix) (uint64, error) {
	f, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	proc := f.VM.NewProcess()
	o, layout, err := sparse.MapOverlay(f, proc, m)
	if err != nil {
		return 0, err
	}
	trace, err := sparse.OverlayTrace(o, layout)
	if err != nil {
		return 0, err
	}
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, trace)
	start := f.Engine.Now()
	done := false
	c.Run(0, func() { done = true })
	f.Engine.Run()
	if !done {
		return 0, fmt.Errorf("bench: SpMV never finished")
	}
	return uint64(f.Engine.Now() - start), nil
}
