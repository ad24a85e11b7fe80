package exp

// This file defines the experiment table and the canonical job spec.
// Each Experiments row is the only place that knows one experiment: its
// flags (with the CLI's defaults and usage strings), its runner and its
// stdout report. The CLI subcommands, SpecFromArgs, Validate, Normalized
// and CLIArgs all read the row, and the JSON document `overlaysim serve`
// accepts is the same flag table as a struct. A spec normalises to the
// CLI's defaults and hashes to a cache key that identifies the simulated
// result — the simulator is deterministic and the harness is
// bit-identical at any worker count, so two specs with the same key have
// the same result by construction.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// Experiment is one row of the experiment table.
type Experiment struct {
	Name    string
	Summary string

	// flags registers the experiment's own flags onto s, with the CLI's
	// defaults and usage strings (-parallel is added for every row).
	flags func(fs *flag.FlagSet, s *JobSpec)

	// run executes a validated, normalized spec on the pool.
	run func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error)

	// report prints the CLI's stdout tables for a finished run.
	report func(w io.Writer, n JobSpec, out *JobOutput)
}

// Experiments is the experiment table, in the order the CLI documents
// the subcommands.
var Experiments = []Experiment{
	{
		Name:    "fork",
		Summary: "Figures 8 and 9: overlay-on-write vs copy-on-write",
		flags: func(fs *flag.FlagSet, s *JobSpec) {
			d := DefaultForkParams()
			fs.Uint64Var(&s.Warm, "warm", d.WarmInstructions, "warm-up instructions before the fork")
			fs.Uint64Var(&s.Measure, "measure", d.MeasureInstructions, "instructions measured after the fork")
			fs.StringVar(&s.Bench, "bench", "", "run a single benchmark (default: all 15)")
			fs.StringVar(&s.Backend, "backend", core.DefaultBackend,
				"translation backend: one of "+strings.Join(core.Backends(), ", "))
			coldFlag(fs, s)
		},
		run: runFork,
		report: func(w io.Writer, _ JobSpec, out *JobOutput) {
			results := out.Export.Results.([]ForkResult)
			PrintFigure8(w, results)
			fmt.Fprintln(w)
			PrintFigure9(w, results)
		},
	},
	{
		Name:    "spmv",
		Summary: "Figure 10: SpMV with overlays vs CSR",
		flags: func(fs *flag.FlagSet, s *JobSpec) {
			fs.IntVar(&s.Matrices, "matrices", 0, "number of suite matrices to run (0 = all 87)")
			fs.BoolVar(&s.Dense, "dense", false, "also run the dense baseline")
			coldFlag(fs, s)
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, err := RunFigure10Pool(ctx, pool, n.Matrices, n.Dense)
			return resultsOutput("spmv", results, err)
		},
		report: func(w io.Writer, _ JobSpec, out *JobOutput) {
			PrintFigure10(w, out.Export.Results.([]SpMVResult))
		},
	},
	{
		Name:    "linesize",
		Summary: "Figure 11: memory overhead vs mapping granularity",
		flags: func(fs *flag.FlagSet, s *JobSpec) {
			fs.IntVar(&s.Matrices, "matrices", 0, "number of suite matrices (0 = all 87)")
			// linesize is purely analytic (a degenerate family with
			// nothing to warm), but it accepts -cold so every suite
			// experiment has the same execution hints.
			coldFlag(fs, s)
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, err := RunFigure11Pool(ctx, pool, n.Matrices)
			return resultsOutput("linesize", results, err)
		},
		report: func(w io.Writer, _ JobSpec, out *JobOutput) {
			PrintFigure11(w, out.Export.Results.([]LineSizeResult))
		},
	},
	{
		Name:    "sweep",
		Summary: "§5.2 sparsity sweep: overlays vs dense",
		flags: func(fs *flag.FlagSet, s *JobSpec) {
			fs.IntVar(&s.Points, "points", 11, "sparsity levels between 0%% and 100%%")
			fs.IntVar(&s.Rows, "rows", 256, "matrix dimension")
			coldFlag(fs, s)
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, err := RunSparsitySweepPool(ctx, pool, n.Points, n.Rows)
			return resultsOutput("sweep", results, err)
		},
		report: func(w io.Writer, _ JobSpec, out *JobOutput) {
			PrintSweep(w, out.Export.Results.([]SweepResult))
		},
	},
	{
		Name:    "dualcore",
		Summary: "extension: page divergence with both processes running",
		flags:   func(*flag.FlagSet, *JobSpec) {},
		run: func(ctx context.Context, pool Pool, _ JobSpec) (*JobOutput, error) {
			results, err := RunDualCorePool(ctx, pool)
			return resultsOutput("dualcore", results, err)
		},
		report: func(w io.Writer, _ JobSpec, out *JobOutput) {
			PrintDualCore(w, out.Export.Results.([]DualCoreResult))
		},
	},
	{
		Name:    "compare",
		Summary: "run the same workloads across translation backends (overlay, baseline, vbi, utopia)",
		flags: func(fs *flag.FlagSet, s *JobSpec) {
			d := DefaultCompareParams()
			fs.StringVar(&s.Bench, "bench", d.Bench, "fork benchmark each backend runs")
			fs.StringVar(&s.Backend, "backend", "",
				"run only this translation backend: one of "+strings.Join(core.Backends(), ", ")+" (default: all)")
			fs.Uint64Var(&s.Warm, "warm", d.Warm, "warm-up instructions before the fork")
			fs.Uint64Var(&s.Measure, "measure", d.Measure, "instructions measured after the fork")
			fs.IntVar(&s.Matrices, "matrices", d.Matrices, "SpMV suite matrices each backend runs")
			coldFlag(fs, s)
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			params := CompareParams{Bench: n.Bench, Warm: n.Warm, Measure: n.Measure, Matrices: n.Matrices}
			if n.Backend != "" {
				params.Backends = []string{n.Backend}
			}
			report, err := RunComparePool(ctx, pool, params)
			if err != nil {
				return nil, err
			}
			return &JobOutput{Export: CompareExport(params, report)}, nil
		},
		report: func(w io.Writer, _ JobSpec, out *JobOutput) {
			PrintCompare(w, out.Export.Results.(*CompareReport))
		},
	},
	{
		Name:    "omsstress",
		Summary: "multi-tenant OMS buffer-manager churn: cooling eviction and beyond-DRAM spill",
		flags: func(fs *flag.FlagSet, s *JobSpec) {
			d := DefaultOMSStressParams()
			fs.IntVar(&s.Tenants, "tenants", d.Tenants, "concurrent tenant stores")
			fs.IntVar(&s.Ops, "ops", d.Ops, "churn operations per tenant")
			fs.IntVar(&s.Segments, "segments", d.Segments, "overlay segments per tenant (working-set bound)")
			fs.IntVar(&s.OMSCapacity, "oms-capacity", d.Capacity, "frame budget per tenant store (-1 = unlimited, no eviction)")
			fs.Var(spillFlag{&s.NoSpill}, "oms-spill", "evict cold segments to the modeled spill tier")
			fs.BoolVar(&s.Shared, "shared", false, "route all tenants through one lock-striped shared store (results are bit-identical either way)")
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, stats, err := RunOMSStressPool(ctx, pool, omsStressParams(n))
			out, err := resultsOutput("omsstress", results, err)
			if err != nil {
				return nil, err
			}
			out.Stats = stats
			return out, nil
		},
		report: func(w io.Writer, n JobSpec, out *JobOutput) {
			PrintOMSStress(w, omsStressParams(n), out.Export.Results.([]OMSStressResult))
		},
	},
}

// experimentNamed returns the table row for name.
func experimentNamed(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Flags registers e's flags (the row's own plus -parallel) onto fs and
// returns the spec they parse into, holding the CLI defaults until
// fs.Parse runs.
func (e Experiment) Flags(fs *flag.FlagSet) *JobSpec {
	s := &JobSpec{Experiment: e.Name}
	e.flags(fs, s)
	fs.IntVar(&s.Parallel, "parallel", 1, "worker goroutines for independent simulations (0 = GOMAXPROCS)")
	return s
}

// coldFlag registers -cold on experiments with a warm-state snapshot
// path.
func coldFlag(fs *flag.FlagSet, s *JobSpec) {
	fs.BoolVar(&s.Cold, "cold", false, "disable warm-state snapshot reuse (results are bit-identical either way)")
}

// spillFlag is the CLI's -oms-spill, the positive form of
// JobSpec.NoSpill. The zero value (no target) reads as false, so flag
// usage still prints the true default.
type spillFlag struct{ noSpill *bool }

func (f spillFlag) String() string   { return strconv.FormatBool(f.noSpill != nil && !*f.noSpill) }
func (f spillFlag) IsBoolFlag() bool { return true }

func (f spillFlag) Set(v string) error {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return err
	}
	*f.noSpill = !b
	return nil
}

// resultsOutput wraps a runner's result rows in the experiment's export.
func resultsOutput(command string, results any, err error) (*JobOutput, error) {
	if err != nil {
		return nil, err
	}
	ex := sim.NewExport(command)
	ex.Results = results
	return &JobOutput{Export: ex}, nil
}

// runFork runs the Figure 8/9 suite. The series epoch and the simulator
// trace ring come from the pool: they are CLI-only inputs, outside the
// spec and its cache key.
func runFork(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
	params := ForkParams{
		WarmInstructions:    n.Warm,
		MeasureInstructions: n.Measure,
		Backend:             n.Backend,
		SeriesEpoch:         pool.Epoch,
		Trace:               pool.Trace,
	}
	if params.SeriesEpoch == 0 {
		params.SeriesEpoch = sim.DefaultEpoch
	}
	// The default backend renders as the empty string so the export's
	// config block and the warm-state family keys match a run that never
	// named a backend.
	if params.Backend == core.DefaultBackend {
		params.Backend = ""
	}
	var names []string
	if n.Bench != "" {
		names = []string{n.Bench}
	}
	results, err := RunForkSuitePool(ctx, pool, params, names)
	if err != nil {
		return nil, err
	}
	ex, stats := ForkExport(params, results)
	return &JobOutput{Export: ex, Stats: stats}, nil
}

// omsStressParams maps a normalized spec onto the churn workload.
func omsStressParams(n JobSpec) OMSStressParams {
	p := OMSStressParams{
		Tenants:  n.Tenants,
		Ops:      n.Ops,
		Segments: n.Segments,
		Capacity: n.OMSCapacity,
		Spill:    !n.NoSpill,
		Shared:   n.Shared,
	}
	if p.Capacity < 0 {
		p.Capacity = 0 // -1 in the spec means unlimited
	}
	return p
}

// JobSpec is one experiment request in canonical form: the experiment
// name plus exactly the flags the matching CLI subcommand accepts. Each
// field's flag is its JSON name unless a flag tag says otherwise.
// Fields whose flag the experiment's row does not register must be zero
// — a spec carrying them is rejected, the same way the CLI rejects an
// unknown flag.
type JobSpec struct {
	// Experiment names the Experiments row that runs the spec.
	Experiment string `json:"experiment"`

	// Parallel is the harness worker count (0 = GOMAXPROCS). It is an
	// execution hint only: simulated metrics are bit-identical at any
	// worker count, so Parallel is excluded from the cache key.
	Parallel int `json:"parallel,omitempty"`

	// Cold disables warm-state snapshot reuse for this run. Like
	// Parallel it is an execution hint only — results are bit-identical
	// either way — so it too is excluded from the cache key.
	Cold bool `json:"cold,omitempty"`

	// Bench restricts a fork run to one benchmark (empty = all 15), or
	// selects the compare experiment's fork benchmark (empty = mcf).
	Bench string `json:"bench,omitempty"`

	// Backend selects the translation backend. For fork it is the
	// backend simulated (empty = overlay, filled in by Normalized so the
	// backend name joins the cache key); for compare it restricts the
	// run to one backend (empty = all registered).
	Backend string `json:"backend,omitempty"`

	// Warm and Measure size the fork window in instructions
	// (0 = the CLI defaults).
	Warm    uint64 `json:"warm,omitempty"`
	Measure uint64 `json:"measure,omitempty"`

	// Matrices limits the spmv/linesize suite (0 = all 87) or sizes the
	// compare experiment's SpMV subset (0 = 4).
	Matrices int `json:"matrices,omitempty"`

	// Dense also runs the spmv dense baseline.
	Dense bool `json:"dense,omitempty"`

	// Points and Rows size the sparsity sweep (0 = the CLI defaults:
	// 11 points, 256 rows).
	Points int `json:"points,omitempty"`
	Rows   int `json:"rows,omitempty"`

	// Tenants, Ops and Segments size the omsstress churn workload
	// (0 = the CLI defaults: 4 tenants, 24000 ops, 192 segments).
	Tenants  int `json:"tenants,omitempty"`
	Ops      int `json:"ops,omitempty"`
	Segments int `json:"segments,omitempty"`

	// OMSCapacity is each tenant store's frame budget for omsstress:
	// 0 = the CLI default (32), -1 = unlimited (no eviction).
	OMSCapacity int `json:"oms_capacity,omitempty" flag:"oms-capacity"`

	// NoSpill disables the beyond-DRAM spill tier for omsstress; a
	// capped store then grants overflow frames and counts overruns
	// instead of evicting.
	NoSpill bool `json:"nospill,omitempty" flag:"oms-spill"`

	// Shared routes omsstress tenants through one lock-striped shared
	// store. Like Parallel it is an execution hint only — per-tenant op
	// streams are private per stripe, so simulated metrics are
	// bit-identical either way — and is excluded from the cache key.
	Shared bool `json:"shared,omitempty"`
}

// JobOutput is what running a spec produces: the same schema-versioned
// export the CLI's -json flag writes, plus the run's merged stats
// registry when the experiment exposes one (fork does; the analytic and
// figure-only runners do not), so a serving layer can aggregate
// simulator telemetry across jobs.
type JobOutput struct {
	Export *sim.Export
	Stats  *sim.Stats
}

// ValidationError collects every problem found in a job spec so clients
// see all of them at once, not one per round trip.
type ValidationError struct {
	Problems []string
}

func (e *ValidationError) Error() string {
	return "invalid job spec: " + strings.Join(e.Problems, "; ")
}

// ParseJobSpec decodes and validates one JSON job spec. Unknown fields
// are rejected — the spec is a flag table, and the CLI rejects unknown
// flags too.
func ParseJobSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, &ValidationError{Problems: []string{err.Error()}}
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// Normalized fills zero fields with the CLI defaults for the spec's
// experiment (the defaults its table row registers). Parallel stays as
// given: 0 means the executing pool's own worker count. It does not
// validate.
func (s JobSpec) Normalized() JobSpec {
	e, ok := experimentNamed(s.Experiment)
	if !ok {
		return s
	}
	d := e.Flags(flag.NewFlagSet(e.Name, flag.ContinueOnError))
	v, dv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(*d)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.IsZero() && v.Type().Field(i).Name != "Parallel" {
			f.Set(dv.Field(i))
		}
	}
	return s
}

// Validate checks the spec against its experiment's table row: the
// experiment must exist, fields whose flag the row does not register
// must be zero, and value constraints mirror the CLI's usage errors
// exactly.
func (s JobSpec) Validate() error {
	e, ok := experimentNamed(s.Experiment)
	if !ok {
		names := make([]string, len(Experiments))
		for i, e := range Experiments {
			names[i] = e.Name
		}
		return &ValidationError{Problems: []string{fmt.Sprintf("unknown experiment %q (want one of %s)",
			s.Experiment, strings.Join(names, ", "))}}
	}
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	e.Flags(fs)
	applies := func(name string) bool { return fs.Lookup(name) != nil }

	var problems []string
	v, t := reflect.ValueOf(s), reflect.TypeOf(s)
	for i := 1; i < t.NumField(); i++ { // field 0 is Experiment
		field := strings.TrimSuffix(t.Field(i).Tag.Get("json"), ",omitempty")
		name := t.Field(i).Tag.Get("flag")
		if name == "" {
			name = field
		}
		if !v.Field(i).IsZero() && !applies(name) {
			problems = append(problems,
				fmt.Sprintf("field %q does not apply to experiment %q", field, s.Experiment))
		}
	}
	if applies("bench") && s.Bench != "" {
		if _, err := workload.ByName(s.Bench); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if applies("backend") {
		if err := core.ValidBackend(s.Backend); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if s.Parallel < 0 {
		problems = append(problems, fmt.Sprintf("invalid parallel %d: must be >= 0", s.Parallel))
	}
	if s.Matrices < 0 {
		problems = append(problems, fmt.Sprintf("invalid matrices %d: must be >= 0", s.Matrices))
	}
	n := s.Normalized()
	if applies("points") && n.Points < 2 {
		problems = append(problems, fmt.Sprintf("invalid points %d: need at least 2 sweep points", n.Points))
	}
	if applies("rows") {
		if n.Rows < sparse.ValuesPerLine {
			problems = append(problems, fmt.Sprintf("invalid rows %d: need at least one cache line of values", n.Rows))
		} else if n.Rows%sparse.ValuesPerLine != 0 {
			problems = append(problems, fmt.Sprintf("invalid rows %d: must be a multiple of %d (whole cache lines of values)", n.Rows, sparse.ValuesPerLine))
		}
	}
	for _, c := range []struct {
		name  string
		value int
	}{{"tenants", n.Tenants}, {"ops", n.Ops}, {"segments", n.Segments}} {
		if applies(c.name) && c.value < 1 {
			problems = append(problems, fmt.Sprintf("invalid %s %d: need at least 1", c.name, c.value))
		}
	}
	if applies("oms-capacity") && n.OMSCapacity < -1 {
		problems = append(problems, fmt.Sprintf("invalid oms_capacity %d: want a frame count, 0 for the default, or -1 for unlimited", n.OMSCapacity))
	}
	if len(problems) > 0 {
		return &ValidationError{Problems: problems}
	}
	return nil
}

// CanonicalJSON renders the result-identity form of the spec: normalized
// (defaults filled in) with the execution-only Parallel hint stripped,
// marshalled with the fixed field order of the struct. Two specs with
// equal CanonicalJSON simulate the same thing.
func (s JobSpec) CanonicalJSON() []byte {
	c := s.Normalized()
	c.Parallel = 0
	c.Cold = false
	c.Shared = false
	b, err := json.Marshal(c)
	if err != nil {
		// JobSpec is a plain struct of marshalable fields; Marshal
		// cannot fail on it.
		panic(err)
	}
	return b
}

// Key is the result cache key: the hex SHA-256 of CanonicalJSON.
func (s JobSpec) Key() string {
	sum := sha256.Sum256(s.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// CLIArgs renders the spec as the equivalent overlaysim invocation —
// subcommand first, then one flag per field that differs from the
// flag's CLI default (Parallel 0 renders as -parallel=0). Feeding the
// result back through SpecFromArgs yields the normalized spec.
func (s JobSpec) CLIArgs() []string {
	args := []string{s.Experiment}
	e, ok := experimentNamed(s.Experiment)
	if !ok {
		return args
	}
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	// The flags are bound to the returned spec: overwrite it so each
	// flag's Value reads the normalized field.
	*e.Flags(fs) = s.Normalized()
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return args
}

// SpecFromArgs parses an overlaysim experiment invocation (subcommand
// followed by its flags) into a validated, normalized JobSpec. It parses
// through the experiment's table row — the same flags, with the same
// defaults, the CLI subcommand registers — so any experiment invocation
// the CLI accepts parses here too.
func SpecFromArgs(args []string) (JobSpec, error) {
	if len(args) == 0 {
		return JobSpec{}, &ValidationError{Problems: []string{"empty invocation"}}
	}
	e, ok := experimentNamed(args[0])
	if !ok {
		return JobSpec{}, &ValidationError{Problems: []string{
			fmt.Sprintf("unknown experiment %q", args[0])}}
	}
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := e.Flags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return JobSpec{}, &ValidationError{Problems: []string{err.Error()}}
	}
	if fs.NArg() > 0 {
		return JobSpec{}, &ValidationError{Problems: []string{
			fmt.Sprintf("unexpected arguments %v", fs.Args())}}
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s.Normalized(), nil
}

// Run executes the spec on the pool and returns the export the matching
// CLI subcommand writes with -json — the CLI runs every experiment
// through this method, so a served job and a CLI run are interchangeable
// by construction. The pool's Parallel is overridden by the spec's when
// set. A context cancelled mid-run surfaces as ctx.Err() even when the
// underlying sweep had already finished its in-flight simulations.
func (s JobSpec) Run(ctx context.Context, pool Pool) (*JobOutput, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e, _ := experimentNamed(s.Experiment)
	n := s.Normalized()
	if n.Parallel != 0 {
		pool.Parallel = n.Parallel
	}
	if n.Cold {
		pool.Cold = true
	}
	if pool.Snap == nil {
		pool.Snap = &SnapshotStats{}
	}
	out, err := e.run(ctx, pool, n)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Warm-state reuse telemetry rides along outside the per-run
	// registries (which stay bit-identical between cold and forked
	// runs): the deterministic tallies go into the export's counter map
	// — identically for a served job and a CLI -json run — and into the
	// output registry the serving layer aggregates into /metrics.
	if prov := pool.Snap.Provenance(); !prov.Empty() {
		prov.AttachCounters(out.Export)
		if out.Stats == nil {
			out.Stats = &sim.Stats{}
		}
		prov.AttachStats(out.Stats)
	}
	return out, nil
}

// Report prints the human-readable tables the CLI subcommand writes to
// stdout for a finished run of the spec.
func (s JobSpec) Report(w io.Writer, out *JobOutput) {
	if e, ok := experimentNamed(s.Experiment); ok {
		e.report(w, s.Normalized(), out)
	}
}
