package exp

// This file implements `overlaysim bench`: a fixed list of experiment
// invocations that doubles as (a) the parallel-harness verification —
// every invocation runs through JobSpec.Run once sequentially and once
// at the requested worker count, and the two -json exports must be byte
// for byte identical — and (b) the CI regression gate: the report is
// written as a schema-versioned export, checked in as
// BENCH_harness.json, and CheckBench fails the build when a simulated
// result drifts (the simulator is deterministic, so the comparison is
// exact) or the wall clock regresses beyond the tolerance.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// BenchInvocations is the bench matrix, one overlaysim experiment
// invocation per entry, each parsed by SpecFromArgs: one fork benchmark
// per workload type, a small SpMV and line-size subsample, the sparsity
// sweep at reduced dimension, one cross-backend compare, an omsstress
// sizing whose 96 segments per tenant against a 16-frame budget keep the
// cooling queue and spill tier under steady pressure, and dualcore.
var BenchInvocations = []string{
	"fork -bench=hmmer -warm=60000 -measure=150000",
	"fork -bench=lbm -warm=60000 -measure=150000",
	"fork -bench=mcf -warm=60000 -measure=150000",
	"spmv -matrices=6",
	"linesize -matrices=10",
	"sweep -points=8 -rows=128",
	"compare -bench=hmmer -warm=60000 -measure=150000 -matrices=2",
	"omsstress -tenants=4 -ops=8000 -segments=96 -oms-capacity=16",
	"dualcore",
}

// BenchExperiment is one invocation's row in the bench report.
type BenchExperiment struct {
	Invocation string  `json:"invocation"`
	SeqWallMS  float64 `json:"seq_wall_ms"` // harness at Parallel 1
	ParWallMS  float64 `json:"par_wall_ms"` // harness at report Parallel
	Speedup    float64 `json:"speedup"`     // SeqWallMS / ParWallMS

	// Metrics are the numeric leaves of the export's results, keyed by
	// their dotted JSON path (e.g. "0.CoW.Cycles"): simulated quantities,
	// machine-independent.
	Metrics map[string]float64 `json:"metrics"`

	// Snapshot records the invocation's warm-state reuse. Absent
	// for experiments with no snapshot path. Like the wall-clock
	// fields, the warmup_ms_saved component is host-dependent.
	Snapshot *SnapshotProvenance `json:"snapshot,omitempty"`
}

// BenchReport is the machine-readable bench baseline. Metrics are
// purely simulated quantities (cycles, bytes, counter deltas) and so
// compare exactly across machines; the wall-clock fields are
// host-dependent and only compared against baselines recorded on
// comparable hardware.
type BenchReport struct {
	Parallel    int                `json:"parallel"`
	SeqWallMS   float64            `json:"seq_wall_ms"`
	ParWallMS   float64            `json:"par_wall_ms"`
	Speedup     float64            `json:"speedup"`
	Snapshot    SnapshotProvenance `json:"snapshot"` // summed across invocations
	Experiments []BenchExperiment  `json:"experiments"`
}

// RunBench runs each invocation through JobSpec.Run twice — once at
// Parallel 1 and once at the requested worker count — verifies the two
// -json exports are byte-identical, and reports per-invocation and
// total wall clock plus the parallel speedup.
func RunBench(ctx context.Context, invocations []string, parallel int, progress io.Writer) (*BenchReport, error) {
	report := &BenchReport{Parallel: parallel}
	for _, inv := range invocations {
		spec, err := SpecFromArgs(strings.Fields(inv))
		if err != nil {
			return nil, fmt.Errorf("bench %q: %w", inv, err)
		}
		// SpecFromArgs fills in the CLI default of -parallel=1, so each
		// pass sets its worker count explicitly.
		var exports [2][]byte
		var wallMS [2]float64
		var snap *SnapshotStats
		for i, workers := range []int{1, parallel} {
			spec.Parallel = workers
			snap = &SnapshotStats{}
			start := time.Now()
			out, err := spec.Run(ctx, Pool{Progress: progress, Snap: snap})
			if err != nil {
				return nil, fmt.Errorf("bench %q (-parallel %d): %w", inv, workers, err)
			}
			wallMS[i] = float64(time.Since(start).Microseconds()) / 1000
			var buf bytes.Buffer
			if err := out.Export.WriteJSON(&buf); err != nil {
				return nil, fmt.Errorf("bench %q: %w", inv, err)
			}
			exports[i] = buf.Bytes()
		}
		if !bytes.Equal(exports[0], exports[1]) {
			return nil, fmt.Errorf("bench %q: the -parallel %d export differs from the sequential one (simulator nondeterminism)",
				inv, parallel)
		}
		metrics, err := resultMetrics(exports[0])
		if err != nil {
			return nil, fmt.Errorf("bench %q: %w", inv, err)
		}
		e := BenchExperiment{Invocation: inv, SeqWallMS: wallMS[0], ParWallMS: wallMS[1], Metrics: metrics}
		if e.ParWallMS > 0 {
			e.Speedup = e.SeqWallMS / e.ParWallMS
		}
		// The parallel pass's reuse; the sequential pass reuses identically.
		if prov := snap.Provenance(); !prov.Empty() {
			e.Snapshot = &prov
			report.Snapshot.accumulate(prov)
		}
		report.Experiments = append(report.Experiments, e)
		report.SeqWallMS += e.SeqWallMS
		report.ParWallMS += e.ParWallMS
	}
	if report.ParWallMS > 0 {
		report.Speedup = report.SeqWallMS / report.ParWallMS
	}
	return report, nil
}

// resultMetrics flattens the numeric leaves of an export's results into
// a map keyed by dotted JSON path; strings and booleans are labels, not
// measurements. Numbers decode as float64, so counts stay exact below
// 2^53.
func resultMetrics(export []byte) (map[string]float64, error) {
	var doc struct {
		Results any `json:"results"`
	}
	if err := json.Unmarshal(export, &doc); err != nil {
		return nil, fmt.Errorf("decode export: %w", err)
	}
	m := make(map[string]float64)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case float64:
			m[strings.TrimSuffix(prefix, ".")] = v
		case map[string]any:
			for k, x := range v {
				walk(prefix+k+".", x)
			}
		case []any:
			for i, x := range v {
				walk(prefix+strconv.Itoa(i)+".", x)
			}
		}
	}
	walk("", doc.Results)
	return m, nil
}

// LoadBenchBaseline parses a recorded bench export (the Results field
// of the schema-versioned JSON `overlaysim bench -json` writes).
func LoadBenchBaseline(r io.Reader) (*BenchReport, error) {
	var doc struct {
		SchemaVersion int         `json:"schema_version"`
		Command       string      `json:"command"`
		Results       BenchReport `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("bench baseline: %w", err)
	}
	if doc.SchemaVersion != sim.SchemaVersion {
		return nil, fmt.Errorf("bench baseline: schema version %d, want %d", doc.SchemaVersion, sim.SchemaVersion)
	}
	if doc.Command != "bench" {
		return nil, fmt.Errorf("bench baseline: export is for command %q, want \"bench\"", doc.Command)
	}
	if len(doc.Results.Experiments) == 0 {
		return nil, fmt.Errorf("bench baseline: no experiments recorded")
	}
	return &doc.Results, nil
}

// diffMetrics describes every key whose value differs (or exists on
// only one side), in sorted key order.
func diffMetrics(want, got map[string]float64) []string {
	keys := make(map[string]bool, len(want)+len(got))
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, k := range sorted {
		w, wok := want[k]
		g, gok := got[k]
		switch {
		case !wok:
			diffs = append(diffs, fmt.Sprintf("%s: unexpected metric (got %v)", k, g))
		case !gok:
			diffs = append(diffs, fmt.Sprintf("%s: missing metric (want %v)", k, w))
		case w != g:
			diffs = append(diffs, fmt.Sprintf("%s: want %v, got %v", k, w, g))
		}
	}
	return diffs
}

// invocations lists the report's invocations in run order.
func (r *BenchReport) invocations() []string {
	invs := make([]string, len(r.Experiments))
	for i, e := range r.Experiments {
		invs[i] = e.Invocation
	}
	return invs
}

// CheckBenchPlan reports whether a run of invocations at the given
// worker count can be checked against the baseline at all: both must
// equal the baseline's. The CLI calls it before simulating anything.
func CheckBenchPlan(baseline *BenchReport, invocations []string, parallel int) error {
	if baseline.Parallel != parallel {
		return fmt.Errorf("bench: baseline recorded at -parallel %d, this run uses -parallel %d",
			baseline.Parallel, parallel)
	}
	if recorded := baseline.invocations(); !slices.Equal(recorded, invocations) {
		return fmt.Errorf("bench: baseline recorded invocations %q, this run uses %q", recorded, invocations)
	}
	return nil
}

// CheckBench compares a fresh report against the recorded baseline:
// the worker count and invocation list must match (CheckBenchPlan),
// simulated metrics must match exactly (per invocation, per key), and
// when wallTol > 0 the total parallel wall clock may not exceed the
// baseline by more than that fraction (0.25 = +25 %). Wall clock is
// host-dependent, so pass wallTol 0 when comparing across machines.
func CheckBench(baseline, got *BenchReport, wallTol float64) error {
	if err := CheckBenchPlan(baseline, got.invocations(), got.Parallel); err != nil {
		return err
	}
	for i, e := range got.Experiments {
		if diffs := diffMetrics(baseline.Experiments[i].Metrics, e.Metrics); len(diffs) > 0 {
			limit := diffs
			if len(limit) > 5 {
				limit = limit[:5]
			}
			return fmt.Errorf("bench: %q simulated metrics drifted from baseline (%d keys):\n  %s",
				e.Invocation, len(diffs), strings.Join(limit, "\n  "))
		}
	}
	if wallTol > 0 && got.ParWallMS > baseline.ParWallMS*(1+wallTol) {
		return fmt.Errorf("bench: wall clock regressed: %.0f ms vs baseline %.0f ms (tolerance +%.0f%%)",
			got.ParWallMS, baseline.ParWallMS, wallTol*100)
	}
	return nil
}

// PrintBench renders the human-readable bench summary.
func PrintBench(w io.Writer, r *BenchReport) {
	fmt.Fprintf(w, "Bench matrix at -parallel %d (exports verified byte-identical vs -parallel 1)\n", r.Parallel)
	fmt.Fprintf(w, "%12s %12s %9s %8s  %s\n", "seq wall", "par wall", "speedup", "metrics", "invocation")
	for _, e := range r.Experiments {
		fmt.Fprintf(w, "%10.0fms %10.0fms %8.2fx %8d  %s\n",
			e.SeqWallMS, e.ParWallMS, e.Speedup, len(e.Metrics), e.Invocation)
	}
	fmt.Fprintf(w, "%10.0fms %10.0fms %8.2fx %8s  %s\n", r.SeqWallMS, r.ParWallMS, r.Speedup, "", "total")
	if s := r.Snapshot; s.Forks > 0 {
		fmt.Fprintf(w, "warm-state reuse: %d families, %d forks, %d warm-ups skipped, %.1f KB copied, ~%.0f ms warm-up saved\n",
			s.Families, s.Forks, s.WarmupsReused, float64(s.BytesCopied)/1024, s.WarmupMSSaved)
	}
}
