package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tinyBench covers all seven experiments at sizes that run in seconds.
var tinyBench = []string{
	"fork -bench=hmmer -warm=20000 -measure=40000",
	"spmv -matrices=2",
	"linesize -matrices=3",
	"sweep -points=2 -rows=64",
	"compare -bench=hmmer -warm=20000 -measure=40000 -matrices=2",
	"omsstress -tenants=2 -ops=2000 -segments=48 -oms-capacity=8",
	"dualcore",
}

// TestRunBenchShape runs the tiny list end to end: every invocation
// present in order, deterministic metrics recorded, wall clocks and
// speedups populated.
func TestRunBenchShape(t *testing.T) {
	report, err := RunBench(context.Background(), tinyBench, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != len(tinyBench) {
		t.Fatalf("got %d experiments, want %d", len(report.Experiments), len(tinyBench))
	}
	for i, e := range report.Experiments {
		if e.Invocation != tinyBench[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.Invocation, tinyBench[i])
		}
		if len(e.Metrics) == 0 {
			t.Errorf("%s: no metrics recorded", e.Invocation)
		}
		if e.SeqWallMS <= 0 || e.ParWallMS <= 0 || e.Speedup <= 0 {
			t.Errorf("%s: wall/speedup not populated: %+v", e.Invocation, e)
		}
	}
	if report.Parallel != 2 || report.SeqWallMS <= 0 || report.Speedup <= 0 {
		t.Errorf("report totals not populated: %+v", report)
	}
	// Spot-check flattened metrics: a fork cycle count, a compare leaf
	// nested under a named field, and a map-keyed linesize overhead.
	for i, key := range map[int]string{0: "0.CoW.Cycles", 4: "backends.0.fork.cycles", 2: "0.Overheads.4096"} {
		if report.Experiments[i].Metrics[key] == 0 {
			t.Errorf("%s: metric %q missing", tinyBench[i], key)
		}
	}

	// A second run reproduces the simulated metrics exactly.
	again, err := RunBench(context.Background(), tinyBench, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range report.Experiments {
		if diffs := diffMetrics(report.Experiments[i].Metrics, again.Experiments[i].Metrics); len(diffs) > 0 {
			t.Errorf("%s metrics not reproducible: %v", report.Experiments[i].Invocation, diffs)
		}
	}

	if _, err := RunBench(context.Background(), []string{"fork -nope"}, 1, nil); err == nil {
		t.Error("bad invocation accepted")
	}
}

// TestResultMetrics flattens nested results: numeric leaves keyed by
// dotted path, labels skipped.
func TestResultMetrics(t *testing.T) {
	got, err := resultMetrics([]byte(`{"results":[{"Name":"a","On":true,"Cycles":7,"Sub":{"x":1.5,"16":2}},{"L":[3]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"0.Cycles": 7, "0.Sub.x": 1.5, "0.Sub.16": 2, "1.L.0": 3}
	if diffs := diffMetrics(want, got); len(diffs) > 0 {
		t.Errorf("flattened metrics wrong: %v", diffs)
	}
}

// TestCheckBench exercises the regression gate: exact-match metrics,
// wall-clock tolerance, and structural mismatches.
func TestCheckBench(t *testing.T) {
	base := &BenchReport{
		Parallel:  4,
		ParWallMS: 1000,
		Experiments: []BenchExperiment{
			{Invocation: "fork -bench=hmmer", Metrics: map[string]float64{"a.cycles": 100, "b.cycles": 200}},
			{Invocation: "sweep", Metrics: map[string]float64{"p0": 7.5}},
		},
	}
	clone := func(mutate func(*BenchReport)) *BenchReport {
		r := &BenchReport{Parallel: base.Parallel, ParWallMS: base.ParWallMS}
		for _, e := range base.Experiments {
			m := make(map[string]float64, len(e.Metrics))
			for k, v := range e.Metrics {
				m[k] = v
			}
			e.Metrics = m
			r.Experiments = append(r.Experiments, e)
		}
		mutate(r)
		return r
	}

	if err := CheckBench(base, clone(func(*BenchReport) {}), 0.25); err != nil {
		t.Fatalf("identical report failed the gate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*BenchReport)
		want   string
	}{
		{"cycle drift", func(r *BenchReport) { r.Experiments[0].Metrics["a.cycles"] = 101 }, "drifted"},
		{"missing metric", func(r *BenchReport) { delete(r.Experiments[0].Metrics, "b.cycles") }, "drifted"},
		{"extra metric", func(r *BenchReport) { r.Experiments[0].Metrics["new"] = 1 }, "drifted"},
		{"missing experiment", func(r *BenchReport) { r.Experiments = r.Experiments[:1] }, "invocations"},
		{"float drift", func(r *BenchReport) { r.Experiments[1].Metrics["p0"] = 7.5000001 }, "drifted"},
		{"extra experiment", func(r *BenchReport) {
			r.Experiments = append(r.Experiments, BenchExperiment{Invocation: "mystery"})
		}, "invocations"},
		{"reordered experiments", func(r *BenchReport) {
			r.Experiments[0], r.Experiments[1] = r.Experiments[1], r.Experiments[0]
		}, "invocations"},
		{"wall regression", func(r *BenchReport) { r.ParWallMS = 1300 }, "wall clock regressed"},
		{"parallel mismatch", func(r *BenchReport) { r.Parallel = 1 }, "-parallel"},
	}
	for _, c := range cases {
		err := CheckBench(base, clone(c.mutate), 0.25)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// Tolerance 0 disables the wall-clock gate entirely.
	if err := CheckBench(base, clone(func(r *BenchReport) { r.ParWallMS = 99999 }), 0); err != nil {
		t.Errorf("wallTol 0 still gated wall clock: %v", err)
	}
}

// TestLoadBenchBaseline round-trips a report through the export format
// and rejects malformed documents.
func TestLoadBenchBaseline(t *testing.T) {
	report := &BenchReport{
		Parallel:    4,
		ParWallMS:   12,
		Experiments: []BenchExperiment{{Invocation: "fork", Metrics: map[string]float64{"x": 1}}},
	}
	ex := sim.NewExport("bench")
	ex.Meta = sim.NewRunMeta(4)
	ex.Results = report
	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parallel != 4 || len(got.Experiments) != 1 || got.Experiments[0].Metrics["x"] != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	for name, doc := range map[string]string{
		"not json":       "nope",
		"wrong command":  `{"schema_version":1,"command":"fork","results":{"experiments":[{"invocation":"x"}]}}`,
		"wrong schema":   `{"schema_version":99,"command":"bench","results":{"experiments":[{"invocation":"x"}]}}`,
		"no experiments": `{"schema_version":1,"command":"bench","results":{}}`,
	} {
		if _, err := LoadBenchBaseline(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: baseline accepted", name)
		}
	}
}
