// Package exp contains the experiment harness: one runner per table or
// figure in the paper's evaluation (§5), producing the same rows/series
// the paper reports. See DESIGN.md's per-experiment index.
package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// ForkParams sizes the Figures 8/9 experiment. The paper warms for 200 M
// instructions and measures 300 M after the fork; the defaults here are
// scaled down 100× (DESIGN.md discusses why the shapes are preserved).
type ForkParams struct {
	WarmInstructions    uint64
	MeasureInstructions uint64

	// Backend selects the translation backend ("" = core.DefaultBackend).
	// Non-overlay backends have no overlay-on-write to offer, so their
	// CoW and OoW arms coincide.
	Backend string `json:"backend,omitempty"`

	// SeriesEpoch is the sampling period of the post-fork counter
	// time-series in cycles (0 selects sim.DefaultEpoch).
	SeriesEpoch sim.Cycle

	// Trace, when non-nil, receives structured simulator events from
	// every run (each run gets its own track in the log).
	Trace *sim.TraceLog `json:"-"`
}

// forkSeriesCounters are the counters every fork run samples per epoch:
// the overlay-vs-COW divergence signals plus the memory-system pressure
// they induce.
var forkSeriesCounters = []string{
	"core.overlaying_writes",
	"core.simple_overlay_writes",
	"core.cow_page_copies",
	"oms.segment_allocs",
	"oms.frames_granted",
	"dram.reads",
	"tlb.misses",
}

// DefaultForkParams returns the scaled-down default window.
func DefaultForkParams() ForkParams {
	return ForkParams{WarmInstructions: 2_000_000, MeasureInstructions: 3_000_000}
}

// QuickForkParams is small enough for tests and smoke benches.
func QuickForkParams() ForkParams {
	return ForkParams{WarmInstructions: 60_000, MeasureInstructions: 150_000}
}

// MechanismResult holds one (benchmark, mechanism) measurement.
type MechanismResult struct {
	AddedBytes int     // additional memory consumed after the fork
	CPI        float64 // cycles per instruction after the fork
	Cycles     uint64
	PageCopies uint64
	Overlaying uint64

	// Stats is the run's full counter/histogram registry; Series is the
	// post-fork epoch time-series. Both are telemetry side-channels, not
	// part of the figure data, so they stay out of the JSON results.
	Stats  *sim.Stats  `json:"-"`
	Series *sim.Series `json:"-"`
}

// ForkResult is one Figure 8/9 row: a benchmark measured under
// conventional copy-on-write and under overlay-on-write.
type ForkResult struct {
	Benchmark string
	Type      workload.Type
	CoW       MechanismResult
	OoW       MechanismResult
}

// MemoryReduction returns 1 − OoW/CoW added memory (the Figure 8 claim).
func (r ForkResult) MemoryReduction() float64 {
	if r.CoW.AddedBytes == 0 {
		return 0
	}
	return 1 - float64(r.OoW.AddedBytes)/float64(r.CoW.AddedBytes)
}

// Speedup returns CoW CPI / OoW CPI (> 1 means overlays are faster).
func (r ForkResult) Speedup() float64 {
	if r.OoW.CPI == 0 {
		return 0
	}
	return r.CoW.CPI / r.OoW.CPI
}

// mechName labels a fork mechanism in series/trace output.
func mechName(overlayMode bool) string {
	if overlayMode {
		return "oow"
	}
	return "cow"
}

// runMechanism executes one benchmark under one fork mechanism.
func runMechanism(ctx context.Context, spec workload.Spec, params ForkParams, overlayMode bool) (MechanismResult, error) {
	cfg := core.DefaultConfig()
	// Footprint + room for COW copies + generous OMS headroom.
	cfg.MemoryPages = spec.Pages*2 + 16384
	cfg.Backend = params.Backend
	return runMechanismCfg(ctx, spec, cfg, params, overlayMode)
}

// backendName resolves an experiment's backend selection ("" = default).
func backendName(b string) string {
	if b == "" {
		return core.DefaultBackend
	}
	return b
}

// phaseSpan opens one experiment-phase span ("fork.warmup",
// "fork.measure") as a child of whatever span the context carries —
// under a served job that is the worker's harness.job span. Nil-safe
// and free when tracing is disabled.
func phaseSpan(ctx context.Context, name string, spec workload.Spec, overlayMode bool) *obs.Span {
	_, span := obs.StartSpan(ctx, name)
	if span != nil {
		span.SetAttr("bench", spec.Name)
		span.SetAttr("mechanism", mechName(overlayMode))
	}
	return span
}

// runMechanismCfg is runMechanism with an explicit framework config:
// the cold path — build, warm, fork, measure, all in one framework.
func runMechanismCfg(ctx context.Context, spec workload.Spec, cfg core.Config, params ForkParams, overlayMode bool) (MechanismResult, error) {
	f, err := core.New(cfg)
	if err != nil {
		return MechanismResult{}, err
	}
	if params.Trace != nil {
		params.Trace.BeginTrack(spec.Name + "/" + mechName(overlayMode))
		f.SetTrace(params.Trace)
	}
	proc := f.VM.NewProcess()
	if err := spec.MapFootprint(f, proc); err != nil {
		return MechanismResult{}, err
	}
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, spec.NewTrace())

	// Warm-up: run the pre-fork region of the benchmark.
	warm := phaseSpan(ctx, "fork.warmup", spec, overlayMode)
	warmDone := false
	c.Run(params.WarmInstructions, func() { warmDone = true })
	f.Engine.Run()
	warm.End()
	if !warmDone {
		return MechanismResult{}, fmt.Errorf("exp: warm-up never finished")
	}
	return measureMechanism(ctx, spec, params, overlayMode, f, c, proc)
}

// measureMechanism forks the warmed process and measures the post-fork
// region. It is shared by the cold path (the warming framework keeps
// running) and the snapshot path (a fork resumed from a family
// capture); both hand it a quiescent framework positioned exactly at
// the fork point, so the measured region is bit-identical between them.
func measureMechanism(ctx context.Context, spec workload.Spec, params ForkParams, overlayMode bool, f *core.Framework, c *cpu.Core, proc *vm.Process) (MechanismResult, error) {
	// Checkpoint-style fork; the child idles (as in the paper's setup).
	f.Fork(proc, overlayMode)
	framesBase := f.Mem.AllocatedPages()
	omsFramesBase := f.OMS.FramesOwned()
	omsBase := f.OMS.BytesInUse()
	copiesBase := f.Engine.Stats.Get("core.cow_page_copies")
	overlayingBase := f.Engine.Stats.Get("core.overlaying_writes")

	// Sample the divergence counters every epoch of the measured region.
	series := sim.NewSeries(spec.Name+"/"+mechName(overlayMode),
		params.SeriesEpoch, forkSeriesCounters...)
	f.Engine.Attach(series)

	measure := phaseSpan(ctx, "fork.measure", spec, overlayMode)
	measureDone := false
	c.Run(params.MeasureInstructions, func() { measureDone = true })
	f.Engine.Run()
	f.Engine.CloseSeries(series)
	measure.End()
	if !measureDone {
		return MechanismResult{}, fmt.Errorf("exp: measurement never finished")
	}

	// Additional memory = new regular frames (page copies) plus the bytes
	// of Overlay Memory Store segments in use. Frames the OMS acquired
	// from the OS are excluded from the frame delta — they are accounted
	// compactly through BytesInUse, which is the overlay design's whole
	// point.
	regularFrames := f.Mem.AllocatedPages() - framesBase - (f.OMS.FramesOwned() - omsFramesBase)
	added := regularFrames*arch.PageSize + (f.OMS.BytesInUse() - omsBase)
	stats := &sim.Stats{}
	stats.Merge(&f.Engine.Stats)
	return MechanismResult{
		AddedBytes: added,
		CPI:        c.CPI(),
		Cycles:     uint64(c.Cycles()),
		PageCopies: f.Engine.Stats.Get("core.cow_page_copies") - copiesBase,
		Overlaying: f.Engine.Stats.Get("core.overlaying_writes") - overlayingBase,
		Stats:      stats,
		Series:     series,
	}, nil
}

// forkFamily is one benchmark's warmed state: everything needed to
// resume any number of measurement runs from the fork point without
// re-running the warm-up. The capture is immutable; concurrent forks
// share its memory pages copy-on-write.
type forkFamily struct {
	spec    workload.Spec
	snap    *core.Snapshot
	cpu     *cpu.Snapshot
	fetched uint64 // trace records the warm-up consumed
	pid     arch.PID
	warmUS  uint64 // wall clock the warm-up cost (≈ saved per reuse)
}

// forkFamilyKey canonicalises the knobs that shape a fork family's warm
// state (the benchmark and the warm window; the measured window does
// not affect it), mirroring the job cache's canonical-spec discipline.
func forkFamilyKey(spec workload.Spec, params ForkParams) string {
	return fmt.Sprintf("fork/%s/%s/warm=%d", backendName(params.Backend), spec.Name, params.WarmInstructions)
}

// warmForkFamily builds a framework, runs the shared pre-fork region
// once, and captures the quiescent state ("fork.snapshot" span).
func warmForkFamily(ctx context.Context, spec workload.Spec, params ForkParams) (*forkFamily, error) {
	cfg := core.DefaultConfig()
	cfg.MemoryPages = spec.Pages*2 + 16384
	cfg.Backend = params.Backend
	f, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	proc := f.VM.NewProcess()
	if err := spec.MapFootprint(f, proc); err != nil {
		return nil, err
	}
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, spec.NewTrace())

	warm := phaseSpan(ctx, "fork.warmup", spec, false)
	if warm != nil {
		warm.SetAttr("mechanism", "shared")
	}
	start := time.Now()
	warmDone := false
	c.Run(params.WarmInstructions, func() { warmDone = true })
	f.Engine.Run()
	warmUS := uint64(time.Since(start).Microseconds())
	warm.End()
	if !warmDone {
		return nil, fmt.Errorf("exp: warm-up never finished")
	}

	snapSp := snapSpan(ctx, "fork.snapshot", forkFamilyKey(spec, params))
	fam := &forkFamily{
		spec:    spec,
		snap:    f.Snapshot(),
		cpu:     c.Snapshot(),
		fetched: c.Fetched(),
		pid:     proc.PID,
		warmUS:  warmUS,
	}
	snapSp.End()
	return fam, nil
}

// resumeMechanism rebuilds an independent framework from the family
// capture ("fork.resume" span) and measures one mechanism from the
// shared fork point.
func resumeMechanism(ctx context.Context, pool Pool, fam *forkFamily, params ForkParams, overlayMode bool) (MechanismResult, error) {
	resume := snapSpan(ctx, "fork.resume", forkFamilyKey(fam.spec, params))
	if resume != nil {
		resume.SetAttr("mechanism", mechName(overlayMode))
	}
	f := core.NewFromSnapshot(fam.snap)
	// The workload trace wraps RNG state that cannot be captured;
	// rebuild it and replay the records the warm-up consumed.
	trace := fam.spec.NewTrace()
	for i := uint64(0); i < fam.fetched; i++ {
		if _, ok := trace.Next(); !ok {
			resume.End()
			return MechanismResult{}, fmt.Errorf("exp: trace exhausted during replay")
		}
	}
	c := cpu.New(f.Engine, f.Port(0), fam.pid, trace)
	c.Restore(fam.cpu)
	proc, ok := f.VM.Process(fam.pid)
	if !ok {
		resume.End()
		return MechanismResult{}, fmt.Errorf("exp: warmed process lost in snapshot")
	}
	resume.End()

	r, err := measureMechanism(ctx, fam.spec, params, overlayMode, f, c, proc)
	if err != nil {
		return MechanismResult{}, err
	}
	pool.Snap.addFork(forkFamilyKey(fam.spec, params), f.Mem.BytesCopied(), fam.warmUS)
	return r, nil
}

// RunForkBenchmark measures one benchmark under both mechanisms. The
// context carries cancellation plus the optional obs tracer/logger;
// phase spans (fork.warmup, fork.measure) nest under its active span.
func RunForkBenchmark(ctx context.Context, spec workload.Spec, params ForkParams) (ForkResult, error) {
	cow, err := runMechanism(ctx, spec, params, false)
	if err != nil {
		return ForkResult{}, fmt.Errorf("%s/cow: %w", spec.Name, err)
	}
	oow, err := runMechanism(ctx, spec, params, true)
	if err != nil {
		return ForkResult{}, fmt.Errorf("%s/oow: %w", spec.Name, err)
	}
	return ForkResult{Benchmark: spec.Name, Type: spec.Type, CoW: cow, OoW: oow}, nil
}

// RunForkSuite measures every benchmark (or the named subset)
// sequentially. It is RunForkSuitePool at Parallel 1.
func RunForkSuite(params ForkParams, names []string) ([]ForkResult, error) {
	return RunForkSuitePool(context.Background(), Pool{Parallel: 1}, params, names)
}

// RunForkSuitePool measures every benchmark (or the named subset).
//
// By default each benchmark's warm-up runs once: stage one fans the
// per-benchmark family warm-ups across the pool and captures a
// core.Snapshot at the fork point; stage two fans one fork per
// (benchmark, mechanism), each resuming an independent framework from
// its family's capture with copy-on-write memory. Results are
// bit-identical to the cold path at any worker count (the fork point
// is a quiescence point, so resuming reproduces the exact event
// order); pool.Cold — or a trace log, which must observe whole runs —
// falls back to one cold job per benchmark. A shared trace log cannot
// record interleaved runs (tracks are sequential), so params.Trace
// also forces Parallel 1.
func RunForkSuitePool(ctx context.Context, pool Pool, params ForkParams, names []string) ([]ForkResult, error) {
	var specs []workload.Spec
	if len(names) == 0 {
		specs = workload.Suite()
	} else {
		for _, n := range names {
			s, err := workload.ByName(n)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	if params.Trace != nil {
		pool.Parallel = 1
	}
	if pool.Cold || params.Trace != nil {
		return harness.Map(ctx, pool.opts("fork"), specs,
			func(jobCtx context.Context, s workload.Spec, _ int) (ForkResult, error) {
				// jobCtx carries the worker's harness.job span, so the
				// per-mechanism phase spans nest under it.
				return RunForkBenchmark(jobCtx, s, params)
			})
	}

	// Stage one: warm each benchmark family once (via the cross-run
	// cache when the serving layer wires one).
	families, err := harness.Map(ctx, pool.opts("fork.warm"), specs,
		func(jobCtx context.Context, s workload.Spec, _ int) (*forkFamily, error) {
			v, err := pool.Snapshots.getOrBuild(forkFamilyKey(s, params), func() (any, error) {
				return warmForkFamily(jobCtx, s, params)
			})
			if err != nil {
				return nil, fmt.Errorf("%s/warm: %w", s.Name, err)
			}
			return v.(*forkFamily), nil
		})
	if err != nil {
		return nil, err
	}

	// Stage two: fork each family once per mechanism.
	type forkJob struct {
		fam     *forkFamily
		overlay bool
	}
	var jobs []forkJob
	for _, fam := range families {
		jobs = append(jobs, forkJob{fam, false}, forkJob{fam, true})
	}
	mechs, err := harness.Map(ctx, pool.opts("fork"), jobs,
		func(jobCtx context.Context, j forkJob, _ int) (MechanismResult, error) {
			r, err := resumeMechanism(jobCtx, pool, j.fam, params, j.overlay)
			if err != nil {
				return MechanismResult{}, fmt.Errorf("%s/%s: %w", j.fam.spec.Name, mechName(j.overlay), err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	results := make([]ForkResult, len(specs))
	for i, s := range specs {
		results[i] = ForkResult{
			Benchmark: s.Name, Type: s.Type,
			CoW: mechs[2*i], OoW: mechs[2*i+1],
		}
	}
	return results, nil
}

// RunForkCPI runs one benchmark under one mechanism with a custom config
// and returns the post-fork CPI (ablation studies use this to sweep
// framework parameters).
func RunForkCPI(spec workload.Spec, cfg core.Config, params ForkParams, overlayMode bool) (float64, error) {
	f, c, err := runToFork(spec, cfg, params, overlayMode)
	if err != nil {
		return 0, err
	}
	c.Run(params.MeasureInstructions, nil)
	f.Engine.Run()
	return c.CPI(), nil
}

// RunWithStats runs one benchmark under one mechanism with the given
// config and returns the engine's full counter dump (debug/CLI aid).
func RunWithStats(spec workload.Spec, cfg core.Config, params ForkParams, overlayMode bool) (string, error) {
	out, _, err := RunStatsExport(context.Background(), spec, cfg, params, overlayMode)
	return out, err
}

// RunStatsExport runs one benchmark under one mechanism and returns both
// the printable counter dump and the machine-readable export (counters,
// histograms, post-fork series; plus the trace if params.Trace is set).
func RunStatsExport(ctx context.Context, spec workload.Spec, cfg core.Config, params ForkParams, overlayMode bool) (string, *sim.Export, error) {
	r, err := runMechanismCfg(ctx, spec, cfg, params, overlayMode)
	if err != nil {
		return "", nil, err
	}
	ex := sim.ExportFrom("stats", r.Stats, r.Series)
	ex.Config = params
	ex.Results = r
	return fmt.Sprintf("cpi %.3f\n%s", r.CPI, r.Stats.String()), ex, nil
}

// ForkExport bundles a fork-suite run into one machine-readable export:
// counters and histograms merged across every (benchmark, mechanism) run,
// one post-fork series per run, and the Figure 8/9 rows as results. It
// also returns the merged registry, whose histograms stay live.
func ForkExport(params ForkParams, results []ForkResult) (*sim.Export, *sim.Stats) {
	merged := &sim.Stats{}
	var series []*sim.Series
	for i := range results {
		for _, m := range []*MechanismResult{&results[i].CoW, &results[i].OoW} {
			merged.Merge(m.Stats)
			if m.Series != nil {
				series = append(series, m.Series)
			}
		}
	}
	ex := sim.ExportFrom("fork", merged, series...)
	ex.Config = params
	ex.Results = results
	return ex, merged
}

// runToFork builds the system, warms the benchmark, and forks.
func runToFork(spec workload.Spec, cfg core.Config, params ForkParams, overlayMode bool) (*core.Framework, *cpu.Core, error) {
	f, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	proc := f.VM.NewProcess()
	if err := spec.MapFootprint(f, proc); err != nil {
		return nil, nil, err
	}
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, spec.NewTrace())
	c.Run(params.WarmInstructions, nil)
	f.Engine.Run()
	f.Fork(proc, overlayMode)
	return f, c, nil
}

// PrintFigure8 renders the additional-memory comparison (Figure 8).
func PrintFigure8(w io.Writer, results []ForkResult) {
	fmt.Fprintln(w, "Figure 8: Additional memory consumed after a fork")
	fmt.Fprintf(w, "%-10s %-5s %15s %15s %12s\n", "benchmark", "type", "cow (KB)", "overlay (KB)", "reduction")
	var totCow, totOow float64
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %-5d %15.1f %15.1f %11.1f%%\n",
			r.Benchmark, r.Type,
			float64(r.CoW.AddedBytes)/1024, float64(r.OoW.AddedBytes)/1024,
			100*r.MemoryReduction())
		totCow += float64(r.CoW.AddedBytes)
		totOow += float64(r.OoW.AddedBytes)
	}
	mean := 0.0
	if totCow > 0 {
		mean = 100 * (1 - totOow/totCow)
	}
	fmt.Fprintf(w, "%-10s %-5s %15.1f %15.1f %11.1f%%   (paper: 53%%)\n",
		"mean", "-", totCow/1024/float64(len(results)), totOow/1024/float64(len(results)), mean)
}

// PrintFigure9 renders the post-fork CPI comparison (Figure 9).
func PrintFigure9(w io.Writer, results []ForkResult) {
	fmt.Fprintln(w, "Figure 9: Cycles per instruction after a fork (lower is better)")
	fmt.Fprintf(w, "%-10s %-5s %10s %10s %10s\n", "benchmark", "type", "cow CPI", "ovl CPI", "speedup")
	var sumSpeedup float64
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %-5d %10.3f %10.3f %9.1f%%\n",
			r.Benchmark, r.Type, r.CoW.CPI, r.OoW.CPI, 100*(r.Speedup()-1))
		sumSpeedup += r.Speedup()
	}
	fmt.Fprintf(w, "%-10s %-5s %10s %10s %9.1f%%   (paper: 15%%)\n",
		"mean", "-", "", "", 100*(sumSpeedup/float64(len(results))-1))
}
