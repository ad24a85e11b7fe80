// Command overlaysim drives the page-overlay simulator's experiment
// harness. Each subcommand regenerates one table or figure from the
// paper's evaluation (§5):
//
//	overlaysim config                 Table 2 (simulated system)
//	overlaysim fork                   Figures 8 and 9 (overlay-on-write vs copy-on-write)
//	overlaysim spmv                   Figure 10 (SpMV: overlays vs CSR)
//	overlaysim linesize               Figure 11 (memory overhead vs granularity)
//	overlaysim sweep                  §5.2 sparsity sweep (overlays vs dense)
//	overlaysim dualcore               extension: divergence with both processes running
//	overlaysim compare                cross-backend comparison (overlay / baseline / vbi / utopia)
//	overlaysim omsstress              multi-tenant OMS churn with cooling eviction and spill tier
//	overlaysim bench                  fixed job matrix: parallel-vs-sequential baseline for CI
//	overlaysim trace                  record a workload trace / replay one through the simulator
//	overlaysim stats                  run one fork benchmark and dump all counters
//	overlaysim serve                  serve experiment jobs over HTTP (docs/API.md)
//	overlaysim coordinator            shard jobs across serve workers (docs/CLUSTER.md)
//
// Most subcommands accept -json=<file> (machine-readable schema-versioned
// export), -csv=<file> (epoch series rows) and -tracelog=<file> (Chrome
// trace_event JSON for chrome://tracing / Perfetto). The experiment
// subcommands accept -parallel=<n> to fan independent simulations across
// n worker goroutines (results are bit-identical at any n). Every
// subcommand accepts -cpuprofile=<file> and -memprofile=<file> to capture
// pprof profiles of the invocation. Usage errors exit with status 2,
// runtime errors with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// command is one subcommand: its flag set is bound to closure variables
// inside the constructor, and run executes after a successful parse.
// Live progress goes to stderr; results go to stdout.
type command struct {
	name    string
	summary string
	flags   *flag.FlagSet
	prof    *profileFlags
	run     func(stdout, stderr io.Writer) error
}

// usageError marks an error as a bad-invocation problem (exit status 2)
// rather than a runtime failure (exit status 1).
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to a subcommand and returns the process exit code:
// 0 on success, 1 on runtime error, 2 on usage error.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := commands()
	usage := func() {
		fmt.Fprintln(stderr, "usage: overlaysim <command> [flags]")
		fmt.Fprintln(stderr, "\ncommands:")
		for _, c := range cmds {
			fmt.Fprintf(stderr, "\n  %-10s %s\n", c.name, c.summary)
			c.flags.SetOutput(stderr)
			c.flags.PrintDefaults()
		}
	}
	if len(args) < 1 {
		usage()
		return 2
	}
	var cmd *command
	for _, c := range cmds {
		if c.name == args[0] {
			cmd = c
			break
		}
	}
	if cmd == nil {
		fmt.Fprintf(stderr, "overlaysim: unknown command %q\n", args[0])
		usage()
		return 2
	}
	cmd.flags.SetOutput(stderr)
	if err := cmd.flags.Parse(args[1:]); err != nil {
		return 2
	}
	exitCode := func(err error) int {
		fmt.Fprintln(stderr, "overlaysim:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	stopProfiles, err := cmd.prof.start()
	if err != nil {
		return exitCode(err)
	}
	err = cmd.run(stdout, stderr)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return exitCode(err)
	}
	return 0
}

// commands builds a fresh subcommand table (fresh flag sets, so tests can
// invoke run repeatedly without flag redefinition panics).
func commands() []*command {
	return []*command{
		newConfigCmd(),
		newForkCmd(),
		newSpmvCmd(),
		newLinesizeCmd(),
		newSweepCmd(),
		newDualcoreCmd(),
		newCompareCmd(),
		newOMSStressCmd(),
		newBenchCmd(),
		newTraceCmd(),
		newStatsCmd(),
		newServeCmd(),
		newCoordinatorCmd(),
	}
}

// addBackendFlag registers the shared -backend flag. parseBackend
// validates the value against the registered-backend list at flag-parse
// time: an unknown name is a usage error (exit 2) listing the valid
// names, not a simulation-time panic.
func addBackendFlag(fs *flag.FlagSet) *string {
	return fs.String("backend", "",
		fmt.Sprintf("translation backend: one of %s (default %s)",
			strings.Join(core.Backends(), ", "), core.DefaultBackend))
}

func parseBackend(backend string) (string, error) {
	if err := core.ValidBackend(backend); err != nil {
		return "", usageError(err.Error())
	}
	// The default backend canonicalises to the empty string so exports
	// and warm-state family keys match a run without the flag.
	if backend == core.DefaultBackend {
		return "", nil
	}
	return backend, nil
}

// profileFlags is the pprof flag group shared by every subcommand.
type profileFlags struct {
	cpuPath string
	memPath string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	p := &profileFlags{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a pprof CPU profile of this invocation to `file`")
	fs.StringVar(&p.memPath, "memprofile", "", "write a pprof heap profile taken at exit to `file`")
	return p
}

// start opens both profile outputs (so an unwritable path fails fast, as
// a usage error) and begins CPU profiling. The returned stop function
// finishes the CPU profile and records the heap profile; it must be
// called exactly once.
func (p *profileFlags) start() (stop func() error, err error) {
	var cpuFh, memFh *os.File
	if p.cpuPath != "" {
		if cpuFh, err = os.Create(p.cpuPath); err != nil {
			return nil, usageError(fmt.Sprintf("invalid -cpuprofile: %v", err))
		}
	}
	if p.memPath != "" {
		if memFh, err = os.Create(p.memPath); err != nil {
			if cpuFh != nil {
				cpuFh.Close()
			}
			return nil, usageError(fmt.Sprintf("invalid -memprofile: %v", err))
		}
	}
	if cpuFh != nil {
		if err := pprof.StartCPUProfile(cpuFh); err != nil {
			cpuFh.Close()
			if memFh != nil {
				memFh.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var firstErr error
		if cpuFh != nil {
			pprof.StopCPUProfile()
			firstErr = cpuFh.Close()
		}
		if memFh != nil {
			runtime.GC() // flatten transient garbage so live heap dominates
			if err := pprof.WriteHeapProfile(memFh); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := memFh.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

// addParallelFlag registers the shared -parallel flag. parsePool turns
// it into the experiment pool, rejecting negative counts as usage
// errors (0 selects GOMAXPROCS).
func addParallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 1, "worker goroutines for independent simulations (0 = GOMAXPROCS)")
}

func parsePool(parallel int, stderr io.Writer) (exp.Pool, error) {
	if parallel < 0 {
		return exp.Pool{}, usageError(fmt.Sprintf("invalid -parallel %d: must be >= 0", parallel))
	}
	return exp.Pool{Parallel: parallel, Progress: stderr}, nil
}

// addColdFlag registers the shared -cold flag on experiments with a
// warm-state snapshot path.
func addColdFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("cold", false, "disable warm-state snapshot reuse (results are bit-identical either way)")
}

// telemetryFlags is the flag group shared by every measuring subcommand.
type telemetryFlags struct {
	jsonPath  string
	csvPath   string
	tracePath string
	spansPath string
	traceCap  int
	epoch     uint64
}

func addTelemetryFlags(fs *flag.FlagSet) *telemetryFlags {
	t := &telemetryFlags{}
	fs.StringVar(&t.jsonPath, "json", "", "write the machine-readable export (JSON, schema v1) to this `file`")
	fs.StringVar(&t.csvPath, "csv", "", "write epoch time-series rows (CSV) to this `file`")
	fs.StringVar(&t.tracePath, "tracelog", "", "write structured simulator events (Chrome trace_event JSON) to this `file`")
	fs.StringVar(&t.spansPath, "spans", "", "write host-side timing spans (JSONL) to this `file`; spans also merge into -tracelog")
	fs.IntVar(&t.traceCap, "tracecap", sim.DefaultTraceCap, "trace ring-buffer capacity in `events`")
	fs.Uint64Var(&t.epoch, "epoch", uint64(sim.DefaultEpoch), "series sampling period in `cycles`")
	return t
}

// wanted reports whether any telemetry output was requested.
func (t *telemetryFlags) wanted() bool {
	return t.jsonPath != "" || t.csvPath != "" || t.tracePath != "" || t.spansPath != ""
}

// traceLog returns the shared trace ring if -tracelog was given.
func (t *telemetryFlags) traceLog() *sim.TraceLog {
	if t.tracePath == "" {
		return nil
	}
	return sim.NewTraceLog(t.traceCap)
}

// traceContext equips the command's context with a span tracer when
// -spans (or -tracelog, which embeds the spans) was requested: the
// harness and experiment phases record wall-clock spans under a
// "cli.<cmd>" root. finish ends the root and returns every recorded
// span; without span output it returns nil and the context is plain.
func (t *telemetryFlags) traceContext(cmd string) (ctx context.Context, finish func() []obs.Span) {
	if t.spansPath == "" && t.tracePath == "" {
		return context.Background(), func() []obs.Span { return nil }
	}
	tr := obs.NewTracer(obs.TraceID{}, 0)
	ctx = obs.NewContext(context.Background(), tr)
	ctx, root := obs.StartSpan(ctx, "cli."+cmd)
	return ctx, func() []obs.Span {
		root.End()
		return tr.Spans()
	}
}

// telemetryOutputs holds the eagerly-created output files between a
// command's flag parse and its final write.
type telemetryOutputs struct {
	json, csv, trace, spans *os.File
}

// open creates every requested output file up front, so an unwritable
// path is a usage error (exit 2) before minutes of simulation — the
// same fail-fast contract profileFlags.start has.
func (t *telemetryFlags) open() (*telemetryOutputs, error) {
	o := &telemetryOutputs{}
	for _, out := range []struct {
		path string
		flag string
		dst  **os.File
	}{
		{t.jsonPath, "json", &o.json},
		{t.csvPath, "csv", &o.csv},
		{t.tracePath, "tracelog", &o.trace},
		{t.spansPath, "spans", &o.spans},
	} {
		if out.path == "" {
			continue
		}
		fh, err := os.Create(out.path)
		if err != nil {
			o.close()
			return nil, usageError(fmt.Sprintf("invalid -%s: %v", out.flag, err))
		}
		*out.dst = fh
	}
	return o, nil
}

// close releases any handles write has not consumed yet. Idempotent, so
// commands can defer it and still call write on the success path.
func (o *telemetryOutputs) close() {
	for _, fh := range []**os.File{&o.json, &o.csv, &o.trace, &o.spans} {
		if *fh != nil {
			(*fh).Close()
			*fh = nil
		}
	}
}

// flush emits one output and consumes its handle.
func flush(fh **os.File, emit func(io.Writer) error) error {
	if *fh == nil {
		return nil
	}
	err := emit(*fh)
	if cerr := (*fh).Close(); err == nil {
		err = cerr
	}
	*fh = nil
	return err
}

// write emits the requested telemetry files. Any of the inputs may be
// nil; an output whose input is nil is left empty. Host-side spans go
// to -spans as JSONL and additionally merge into the -tracelog Chrome
// document (simulated-cycle tracks at pid >= 1, wall-clock spans at
// pid 0).
func (o *telemetryOutputs) write(ex *sim.Export, series []*sim.Series, tl *sim.TraceLog, spans []obs.Span) error {
	defer o.close()
	if ex != nil {
		if err := flush(&o.json, ex.WriteJSON); err != nil {
			return err
		}
	}
	if err := flush(&o.csv, func(w io.Writer) error {
		return sim.WriteSeriesCSV(w, series...)
	}); err != nil {
		return err
	}
	if err := flush(&o.spans, func(w io.Writer) error {
		return obs.WriteSpansJSONL(w, spans)
	}); err != nil {
		return err
	}
	if tl != nil {
		if err := flush(&o.trace, func(w io.Writer) error {
			simRecords, err := tl.ChromeRecords()
			if err != nil {
				return err
			}
			spanRecords, err := obs.ChromeRecords(spans)
			if err != nil {
				return err
			}
			return sim.WriteChromeTrace(w, simRecords, spanRecords)
		}); err != nil {
			return err
		}
	}
	return nil
}

func newConfigCmd() *command {
	fs := flag.NewFlagSet("config", flag.ContinueOnError)
	return &command{
		name:    "config",
		summary: "print the simulated system (Table 2)",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, _ io.Writer) error {
			system.Describe(stdout, system.Default())
			return nil
		},
	}
}

func newForkCmd() *command {
	fs := flag.NewFlagSet("fork", flag.ContinueOnError)
	warm := fs.Uint64("warm", exp.DefaultForkParams().WarmInstructions, "warm-up instructions before the fork")
	measure := fs.Uint64("measure", exp.DefaultForkParams().MeasureInstructions, "instructions measured after the fork")
	bench := fs.String("bench", "", "run a single benchmark (default: all 15)")
	backend := addBackendFlag(fs)
	parallel := addParallelFlag(fs)
	cold := addColdFlag(fs)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "fork",
		summary: "Figures 8 and 9: overlay-on-write vs copy-on-write",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			pool, err := parsePool(*parallel, stderr)
			if err != nil {
				return err
			}
			be, err := parseBackend(*backend)
			if err != nil {
				return err
			}
			pool.Cold = *cold
			snap := &exp.SnapshotStats{}
			pool.Snap = snap
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			tl := tel.traceLog()
			params := exp.ForkParams{
				WarmInstructions:    *warm,
				MeasureInstructions: *measure,
				Backend:             be,
				SeriesEpoch:         sim.Cycle(tel.epoch),
				Trace:               tl,
			}
			var names []string
			if *bench != "" {
				names = []string{*bench}
			}
			ctx, finishSpans := tel.traceContext("fork")
			results, err := exp.RunForkSuitePool(ctx, pool, params, names)
			if err != nil {
				return err
			}
			exp.PrintFigure8(stdout, results)
			fmt.Fprintln(stdout)
			exp.PrintFigure9(stdout, results)
			if !tel.wanted() {
				return nil
			}
			ex := exp.ForkExport(params, results)
			snap.Provenance().AttachCounters(ex)
			var series []*sim.Series
			for i := range results {
				series = append(series, results[i].CoW.Series, results[i].OoW.Series)
			}
			return outs.write(ex, series, tl, finishSpans())
		},
	}
}

func newSpmvCmd() *command {
	fs := flag.NewFlagSet("spmv", flag.ContinueOnError)
	limit := fs.Int("matrices", 0, "number of suite matrices to run (0 = all 87)")
	dense := fs.Bool("dense", false, "also run the dense baseline")
	parallel := addParallelFlag(fs)
	cold := addColdFlag(fs)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "spmv",
		summary: "Figure 10: SpMV with overlays vs CSR",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			pool, err := parsePool(*parallel, stderr)
			if err != nil {
				return err
			}
			if *limit < 0 {
				return usageError(fmt.Sprintf("invalid -matrices %d: must be >= 0", *limit))
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			pool.Cold = *cold
			snap := &exp.SnapshotStats{}
			pool.Snap = snap
			ctx, finishSpans := tel.traceContext("spmv")
			results, err := exp.RunFigure10Pool(ctx, pool, *limit, *dense)
			if err != nil {
				return err
			}
			exp.PrintFigure10(stdout, results)
			if !tel.wanted() {
				return nil
			}
			ex := sim.NewExport("spmv")
			ex.Results = results
			snap.Provenance().AttachCounters(ex)
			return outs.write(ex, nil, nil, finishSpans())
		},
	}
}

func newLinesizeCmd() *command {
	fs := flag.NewFlagSet("linesize", flag.ContinueOnError)
	limit := fs.Int("matrices", 0, "number of suite matrices (0 = all 87)")
	parallel := addParallelFlag(fs)
	cold := addColdFlag(fs)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "linesize",
		summary: "Figure 11: memory overhead vs mapping granularity",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			pool, err := parsePool(*parallel, stderr)
			if err != nil {
				return err
			}
			if *limit < 0 {
				return usageError(fmt.Sprintf("invalid -matrices %d: must be >= 0", *limit))
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			// linesize is purely analytic today (a degenerate family with
			// nothing to warm), but it accepts -cold so the flag surface
			// matches the job-spec table.
			pool.Cold = *cold
			ctx, finishSpans := tel.traceContext("linesize")
			results, err := exp.RunFigure11Pool(ctx, pool, *limit)
			if err != nil {
				return err
			}
			exp.PrintFigure11(stdout, results)
			if !tel.wanted() {
				return nil
			}
			ex := sim.NewExport("linesize")
			ex.Results = results
			return outs.write(ex, nil, nil, finishSpans())
		},
	}
}

func newSweepCmd() *command {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	points := fs.Int("points", 11, "sparsity levels between 0%% and 100%%")
	rows := fs.Int("rows", 256, "matrix dimension")
	parallel := addParallelFlag(fs)
	cold := addColdFlag(fs)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "sweep",
		summary: "§5.2 sparsity sweep: overlays vs dense",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			pool, err := parsePool(*parallel, stderr)
			if err != nil {
				return err
			}
			if *points < 2 {
				return usageError(fmt.Sprintf("invalid -points %d: need at least 2 sweep points", *points))
			}
			if *rows < sparse.ValuesPerLine {
				return usageError(fmt.Sprintf("invalid -rows %d: need at least one cache line of values", *rows))
			}
			if *rows%sparse.ValuesPerLine != 0 {
				return usageError(fmt.Sprintf("invalid -rows %d: must be a multiple of %d (whole cache lines of values)", *rows, sparse.ValuesPerLine))
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			pool.Cold = *cold
			snap := &exp.SnapshotStats{}
			pool.Snap = snap
			ctx, finishSpans := tel.traceContext("sweep")
			results, err := exp.RunSparsitySweepPool(ctx, pool, *points, *rows)
			if err != nil {
				return err
			}
			exp.PrintSweep(stdout, results)
			if !tel.wanted() {
				return nil
			}
			ex := sim.NewExport("sweep")
			ex.Results = results
			snap.Provenance().AttachCounters(ex)
			return outs.write(ex, nil, nil, finishSpans())
		},
	}
}

func newDualcoreCmd() *command {
	fs := flag.NewFlagSet("dualcore", flag.ContinueOnError)
	parallel := addParallelFlag(fs)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "dualcore",
		summary: "extension: page divergence with both processes running",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			pool, err := parsePool(*parallel, stderr)
			if err != nil {
				return err
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			ctx, finishSpans := tel.traceContext("dualcore")
			results, err := exp.RunDualCorePool(ctx, pool)
			if err != nil {
				return err
			}
			exp.PrintDualCore(stdout, results)
			if !tel.wanted() {
				return nil
			}
			ex := sim.NewExport("dualcore")
			ex.Results = results
			return outs.write(ex, nil, nil, finishSpans())
		},
	}
}

func newCompareCmd() *command {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	defaults := exp.DefaultCompareParams()
	bench := fs.String("bench", defaults.Bench, "fork benchmark each backend runs")
	backend := addBackendFlag(fs)
	warm := fs.Uint64("warm", defaults.Warm, "warm-up instructions before the fork")
	measure := fs.Uint64("measure", defaults.Measure, "instructions measured after the fork")
	matrices := fs.Int("matrices", defaults.Matrices, "SpMV suite matrices each backend runs")
	parallel := addParallelFlag(fs)
	cold := addColdFlag(fs)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "compare",
		summary: "run the same workloads across translation backends (overlay, baseline, vbi, utopia)",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			pool, err := parsePool(*parallel, stderr)
			if err != nil {
				return err
			}
			if err := core.ValidBackend(*backend); err != nil {
				return usageError(err.Error())
			}
			if *matrices < 0 {
				return usageError(fmt.Sprintf("invalid -matrices %d: must be >= 0", *matrices))
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			pool.Cold = *cold
			snap := &exp.SnapshotStats{}
			pool.Snap = snap
			params := exp.CompareParams{
				Bench:    *bench,
				Warm:     *warm,
				Measure:  *measure,
				Matrices: *matrices,
			}
			// -backend restricts the run to one backend; default is all.
			if *backend != "" {
				params.Backends = []string{*backend}
			}
			ctx, finishSpans := tel.traceContext("compare")
			report, err := exp.RunComparePool(ctx, pool, params)
			if err != nil {
				return err
			}
			exp.PrintCompare(stdout, report)
			if !tel.wanted() {
				return nil
			}
			ex := exp.CompareExport(params, report)
			snap.Provenance().AttachCounters(ex)
			return outs.write(ex, nil, nil, finishSpans())
		},
	}
}

func newOMSStressCmd() *command {
	fs := flag.NewFlagSet("omsstress", flag.ContinueOnError)
	defaults := exp.DefaultOMSStressParams()
	tenants := fs.Int("tenants", defaults.Tenants, "concurrent tenant stores")
	ops := fs.Int("ops", defaults.Ops, "churn operations per tenant")
	segments := fs.Int("segments", defaults.Segments, "overlay segments per tenant (working-set bound)")
	capacity := fs.Int("oms-capacity", defaults.Capacity, "frame budget per tenant store (-1 = unlimited, no eviction)")
	spill := fs.Bool("oms-spill", defaults.Spill, "evict cold segments to the modeled spill tier")
	shared := fs.Bool("shared", false, "route all tenants through one lock-striped shared store (results are bit-identical either way)")
	parallel := addParallelFlag(fs)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "omsstress",
		summary: "multi-tenant OMS buffer-manager churn: cooling eviction and beyond-DRAM spill",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			pool, err := parsePool(*parallel, stderr)
			if err != nil {
				return err
			}
			if *tenants < 1 || *ops < 1 || *segments < 1 {
				return usageError("omsstress: -tenants, -ops and -segments must be >= 1")
			}
			// Capacity semantics match the job spec: -1 = unlimited,
			// 0 normalizes to the default budget.
			capFrames := *capacity
			switch {
			case capFrames < -1:
				return usageError(fmt.Sprintf("invalid -oms-capacity %d: want a frame count, 0 for the default, or -1 for unlimited", capFrames))
			case capFrames == -1:
				capFrames = 0 // unlimited: never hand SetCapacity a budget
			case capFrames == 0:
				capFrames = defaults.Capacity
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			params := exp.OMSStressParams{
				Tenants:  *tenants,
				Ops:      *ops,
				Segments: *segments,
				Capacity: capFrames,
				Spill:    *spill,
				Shared:   *shared,
			}
			ctx, finishSpans := tel.traceContext("omsstress")
			results, _, err := exp.RunOMSStressPool(ctx, pool, params)
			if err != nil {
				return err
			}
			exp.PrintOMSStress(stdout, params, results)
			if !tel.wanted() {
				return nil
			}
			ex := sim.NewExport("omsstress")
			ex.Results = results
			return outs.write(ex, nil, nil, finishSpans())
		},
	}
}

func newBenchCmd() *command {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	short := fs.Bool("short", false, "run the quick CI matrix instead of the full one")
	parallel := fs.Int("parallel", 0, "worker goroutines for the parallel phase (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write the machine-readable baseline (JSON, schema v1) to this `file`")
	check := fs.String("check", "", "compare this run against the recorded baseline `file`; drift exits 1")
	wallTol := fs.Float64("wall-tolerance", 0.25, "allowed wall-clock regression vs baseline (0.25 = +25%%; 0 disables)")
	benches := fs.String("benches", "", "override the fork benchmark list (comma-separated)")
	warm := fs.Uint64("warm", 0, "override fork warm-up instructions")
	measure := fs.Uint64("measure", 0, "override fork measured instructions")
	matrices := fs.Int("matrices", 0, "override the SpMV/linesize matrix count")
	points := fs.Int("points", 0, "override the sparsity-sweep point count")
	rows := fs.Int("rows", 0, "override the sparsity-sweep matrix dimension")
	return &command{
		name:    "bench",
		summary: "run the fixed experiment matrix sequentially and in parallel; baseline for CI",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			if *parallel < 0 {
				return usageError(fmt.Sprintf("invalid -parallel %d: must be >= 0", *parallel))
			}
			if *wallTol < 0 {
				return usageError(fmt.Sprintf("invalid -wall-tolerance %g: must be >= 0", *wallTol))
			}
			// Open the export and load the baseline before spending
			// minutes simulating: a bad path is a usage error now, not
			// a runtime error after the run.
			var jsonFh *os.File
			if *jsonPath != "" {
				var err error
				if jsonFh, err = os.Create(*jsonPath); err != nil {
					return usageError(fmt.Sprintf("invalid -json: %v", err))
				}
				defer jsonFh.Close()
			}
			var baseline *exp.BenchReport
			if *check != "" {
				fh, err := os.Open(*check)
				if err != nil {
					return err
				}
				baseline, err = exp.LoadBenchBaseline(fh)
				fh.Close()
				if err != nil {
					return fmt.Errorf("%s: %w", *check, err)
				}
			}
			plan := exp.DefaultBenchPlan()
			if *short {
				plan = exp.ShortBenchPlan()
			}
			if *benches != "" {
				plan.ForkNames = strings.Split(*benches, ",")
			}
			if *warm != 0 {
				plan.ForkParams.WarmInstructions = *warm
			}
			if *measure != 0 {
				plan.ForkParams.MeasureInstructions = *measure
			}
			if *matrices != 0 {
				plan.SpMVMatrices = *matrices
				plan.LineSizeMatrices = *matrices
			}
			if *points != 0 {
				plan.SweepPoints = *points
			}
			if *rows != 0 {
				plan.SweepRows = *rows
			}
			workers := *parallel
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			start := time.Now()
			report, err := exp.RunBench(context.Background(), plan, workers, stderr)
			if err != nil {
				return err
			}
			exp.PrintBench(stdout, report)
			if jsonFh != nil {
				ex := sim.NewExport("bench")
				ex.Meta = sim.NewRunMeta(workers)
				ex.Meta.WallMS = float64(time.Since(start).Microseconds()) / 1000
				ex.Config = plan
				ex.Results = report
				if err := ex.WriteJSON(jsonFh); err != nil {
					return err
				}
				if err := jsonFh.Close(); err != nil {
					return err
				}
			}
			if baseline != nil {
				if err := exp.CheckBench(baseline, report, *wallTol); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "baseline check passed: metrics exact, wall within +%.0f%% of %s\n",
					*wallTol*100, *check)
			}
			return nil
		},
	}
}

func newStatsCmd() *command {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	bench := fs.String("bench", "mcf", "benchmark to run")
	backend := addBackendFlag(fs)
	overlay := fs.Bool("overlay", true, "use overlay-on-write (false: copy-on-write)")
	measure := fs.Uint64("measure", exp.QuickForkParams().MeasureInstructions, "instructions after fork")
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "stats",
		summary: "run one fork benchmark and dump all counters",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, _ io.Writer) error {
			spec, err := workload.ByName(*bench)
			if err != nil {
				return err
			}
			be, err := parseBackend(*backend)
			if err != nil {
				return err
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			cfg := core.DefaultConfig()
			cfg.MemoryPages = spec.Pages*2 + 16384
			cfg.Backend = be
			tl := tel.traceLog()
			params := exp.ForkParams{
				WarmInstructions:    exp.QuickForkParams().WarmInstructions,
				MeasureInstructions: *measure,
				Backend:             be,
				SeriesEpoch:         sim.Cycle(tel.epoch),
				Trace:               tl,
			}
			ctx, finishSpans := tel.traceContext("stats")
			out, ex, err := exp.RunStatsExport(ctx, spec, cfg, params, *overlay)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, out)
			if !tel.wanted() {
				return nil
			}
			var series []*sim.Series
			if r, ok := ex.Results.(exp.MechanismResult); ok && r.Series != nil {
				series = append(series, r.Series)
			}
			return outs.write(ex, series, tl, finishSpans())
		},
	}
}

func newTraceCmd() *command {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	bench := fs.String("bench", "mcf", "benchmark to record")
	out := fs.String("out", "", "record the trace to this file")
	in := fs.String("in", "", "replay a recorded trace through the simulator")
	n := fs.Uint64("n", 100000, "instructions to record")
	return &command{
		name:    "trace",
		summary: "record a workload trace / replay one through the simulator",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, _ io.Writer) error {
			switch {
			case *out != "" && *in != "":
				return usageError("trace: -out and -in are mutually exclusive")
			case *out != "":
				return traceRecord(stdout, *bench, *out, *n)
			case *in != "":
				return traceReplay(stdout, *bench, *in)
			}
			return usageError("trace: need -out (record) or -in (replay)")
		},
	}
}

func traceRecord(stdout io.Writer, bench, out string, n uint64) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	fh, err := os.Create(out)
	if err != nil {
		return err
	}
	defer fh.Close()
	count, err := trace.Record(fh, spec.NewTrace(), n)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d instructions of %s to %s\n", count, bench, out)
	return nil
}

func traceReplay(stdout io.Writer, bench, in string) error {
	fh, err := os.Open(in)
	if err != nil {
		return err
	}
	defer fh.Close()
	r, err := trace.NewReader(fh)
	if err != nil {
		return err
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.MemoryPages = spec.Pages*2 + 16384
	f, err := core.New(cfg)
	if err != nil {
		return err
	}
	proc := f.VM.NewProcess()
	if err := spec.MapFootprint(f, proc); err != nil {
		return err
	}
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, r)
	c.Run(0, nil)
	f.Engine.Run()
	if r.Err() != nil {
		return r.Err()
	}
	fmt.Fprintf(stdout, "replayed %d instructions in %d cycles (CPI %.3f)\n",
		c.Retired(), c.Cycles(), c.CPI())
	return nil
}
