package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// TestSpecRoundTrip feeds specs through CLIArgs → SpecFromArgs and
// asserts the normalized spec survives unchanged.
func TestSpecRoundTrip(t *testing.T) {
	specs := []JobSpec{
		{Experiment: "fork", Bench: "hmmer", Warm: 20000, Measure: 50000},
		{Experiment: "fork"},
		{Experiment: "spmv", Matrices: 6, Dense: true, Parallel: 4},
		{Experiment: "linesize", Matrices: 10},
		{Experiment: "sweep", Points: 8, Rows: 128},
		{Experiment: "sweep"},
		{Experiment: "dualcore", Parallel: 2},
		{Experiment: "omsstress"},
		{Experiment: "omsstress", Tenants: 2, Ops: 4000, Segments: 48, OMSCapacity: 8, Parallel: 2},
		{Experiment: "omsstress", OMSCapacity: -1, NoSpill: true, Shared: true},
	}
	for _, s := range specs {
		args := s.CLIArgs()
		back, err := SpecFromArgs(args)
		if err != nil {
			t.Errorf("%v: SpecFromArgs(%v): %v", s, args, err)
			continue
		}
		if back != s.Normalized() {
			t.Errorf("round trip drifted:\n spec %+v\n args %v\n back %+v", s.Normalized(), args, back)
		}
	}
}

// TestSpecValidation exercises the flag-table checks: unknown
// experiments, inapplicable fields, and the CLI's value constraints.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string // substring of the validation error ("" = valid)
	}{
		{"ok fork", JobSpec{Experiment: "fork", Bench: "mcf"}, ""},
		{"ok dualcore", JobSpec{Experiment: "dualcore"}, ""},
		{"ok sweep defaults", JobSpec{Experiment: "sweep"}, ""},
		{"unknown experiment", JobSpec{Experiment: "warp"}, "unknown experiment"},
		{"fork with rows", JobSpec{Experiment: "fork", Rows: 64}, `"rows" does not apply`},
		{"fork unknown bench", JobSpec{Experiment: "fork", Bench: "nope"}, "nope"},
		{"spmv with warm", JobSpec{Experiment: "spmv", Warm: 5}, `"warm" does not apply`},
		{"dualcore with dense", JobSpec{Experiment: "dualcore", Dense: true}, `"dense" does not apply`},
		{"negative parallel", JobSpec{Experiment: "spmv", Parallel: -1}, "parallel"},
		{"negative matrices", JobSpec{Experiment: "linesize", Matrices: -2}, "matrices"},
		{"sweep one point", JobSpec{Experiment: "sweep", Points: 1}, "at least 2 sweep points"},
		{"sweep tiny rows", JobSpec{Experiment: "sweep", Rows: 4}, "cache line"},
		{"sweep rows not whole lines", JobSpec{Experiment: "sweep", Rows: 12}, "multiple of 8"},
		{"ok omsstress", JobSpec{Experiment: "omsstress", OMSCapacity: 8, Shared: true}, ""},
		{"omsstress with bench", JobSpec{Experiment: "omsstress", Bench: "mcf"}, `"bench" does not apply`},
		{"omsstress with cold", JobSpec{Experiment: "omsstress", Cold: true}, `"cold" does not apply`},
		{"omsstress bad capacity", JobSpec{Experiment: "omsstress", OMSCapacity: -2}, "oms_capacity"},
		{"omsstress bad tenants", JobSpec{Experiment: "omsstress", Tenants: -1}, "tenants"},
		{"fork with tenants", JobSpec{Experiment: "fork", Tenants: 2}, `"tenants" does not apply`},
		{"sweep with shared", JobSpec{Experiment: "sweep", Shared: true}, `"shared" does not apply`},
		{"spmv with nospill", JobSpec{Experiment: "spmv", NoSpill: true}, `"nospill" does not apply`},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
		var ve *ValidationError
		if err != nil && !errors.As(err, &ve) {
			t.Errorf("%s: error is %T, want *ValidationError", c.name, err)
		}
	}
}

// TestSpecValidationCollectsAll asserts one bad spec reports every
// problem, not just the first.
func TestSpecValidationCollectsAll(t *testing.T) {
	s := JobSpec{Experiment: "sweep", Points: 1, Rows: 4, Parallel: -3, Dense: true}
	err := s.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("error = %v, want *ValidationError", err)
	}
	if len(ve.Problems) != 4 {
		t.Errorf("got %d problems, want 4: %v", len(ve.Problems), ve.Problems)
	}
}

// TestSpecKey pins the cache-key semantics: defaults and explicit
// defaults collide, Parallel never matters, and distinct work diverges.
func TestSpecKey(t *testing.T) {
	base := JobSpec{Experiment: "sweep"}
	explicit := JobSpec{Experiment: "sweep", Points: 11, Rows: 256}
	if base.Key() != explicit.Key() {
		t.Error("spec with explicit defaults has a different key than the bare spec")
	}
	par := JobSpec{Experiment: "sweep", Parallel: 8}
	if base.Key() != par.Key() {
		t.Error("parallel hint changed the cache key; metrics are identical at any worker count")
	}
	other := JobSpec{Experiment: "sweep", Points: 8}
	if base.Key() == other.Key() {
		t.Error("different sweep sizes share a cache key")
	}
	if k := base.Key(); len(k) != 64 {
		t.Errorf("key %q is not a hex sha256", k)
	}
}

// TestSpecKeyIgnoresExecutionHints is the digest-agreement regression
// for the result tiers (LRU cache, persistent store, coordinator shard
// routing): every execution-only field — parallel, cold, shared — must
// be invisible to Key, individually and combined, or identical work
// would land in different cache slots depending on how it was launched.
func TestSpecKeyIgnoresExecutionHints(t *testing.T) {
	cases := []struct {
		name          string
		base, variant JobSpec
	}{
		{"parallel", JobSpec{Experiment: "omsstress"}, JobSpec{Experiment: "omsstress", Parallel: 7}},
		{"shared", JobSpec{Experiment: "omsstress"}, JobSpec{Experiment: "omsstress", Shared: true}},
		{"cold", JobSpec{Experiment: "dualcore"}, JobSpec{Experiment: "dualcore", Cold: true}},
		{"all combined",
			JobSpec{Experiment: "omsstress", Tenants: 3, Ops: 500},
			JobSpec{Experiment: "omsstress", Tenants: 3, Ops: 500, Parallel: 4, Shared: true}},
	}
	for _, tc := range cases {
		if tc.base.Key() != tc.variant.Key() {
			t.Errorf("%s: execution hint changed the digest\n base    %s\n variant %s",
				tc.name, tc.base.Key(), tc.variant.Key())
		}
		if string(tc.base.CanonicalJSON()) != string(tc.variant.CanonicalJSON()) {
			t.Errorf("%s: canonical JSON diverged: %s vs %s",
				tc.name, tc.base.CanonicalJSON(), tc.variant.CanonicalJSON())
		}
	}
	// Simulation-relevant omsstress fields still diverge.
	a := JobSpec{Experiment: "omsstress", Tenants: 2}
	b := JobSpec{Experiment: "omsstress", Tenants: 3}
	if a.Key() == b.Key() {
		t.Error("different tenant counts share a digest")
	}
}

// TestParseJobSpec covers strict decoding: unknown fields and invalid
// specs are rejected with ValidationError.
func TestParseJobSpec(t *testing.T) {
	good := `{"experiment":"fork","bench":"hmmer","warm":20000,"measure":50000}`
	s, err := ParseJobSpec(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Bench != "hmmer" || s.Warm != 20000 {
		t.Errorf("parsed spec = %+v", s)
	}
	for name, body := range map[string]string{
		"unknown field":   `{"experiment":"fork","turbo":true}`,
		"not json":        `experiment=fork`,
		"bad experiment":  `{"experiment":"warp"}`,
		"field mismatch":  `{"experiment":"dualcore","rows":64}`,
		"negative number": `{"experiment":"spmv","matrices":-1}`,
	} {
		if _, err := ParseJobSpec(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

// TestSpecRunMatchesDirectRunner runs a tiny sweep through JobSpec.Run
// and through the underlying pool runner directly; the simulated cycle
// counts must agree (the serve layer adds no simulation of its own).
func TestSpecRunMatchesDirectRunner(t *testing.T) {
	spec := JobSpec{Experiment: "sweep", Points: 2, Rows: 64}
	out, err := spec.Run(context.Background(), Pool{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Export == nil || out.Export.Command != "sweep" {
		t.Fatalf("export = %+v", out.Export)
	}
	direct, err := RunSparsitySweepPool(context.Background(), Pool{Parallel: 1}, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.Export.Results.([]SweepResult)
	if !ok {
		t.Fatalf("export results have type %T", out.Export.Results)
	}
	if len(got) != len(direct) {
		t.Fatalf("got %d results, want %d", len(got), len(direct))
	}
	for i := range got {
		if got[i] != direct[i] {
			t.Errorf("point %d: spec run %+v != direct run %+v", i, got[i], direct[i])
		}
	}
}

// TestSpecRunCancelled asserts a pre-cancelled context surfaces as
// ctx.Err, not a partial result.
func TestSpecRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := JobSpec{Experiment: "dualcore"}.Run(ctx, Pool{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// FuzzParseJobSpec feeds arbitrary bytes to the job-spec parser, the
// service's entry point for untrusted input. Parsing must never panic;
// a spec it accepts must validate, and its canonical form must parse
// back to the same canonical bytes (so the result-cache key is a fixed
// point). The seed corpus is under testdata/fuzz/FuzzParseJobSpec.
func FuzzParseJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := ParseJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed spec %+v fails Validate: %v", s, err)
		}
		canon := s.CanonicalJSON()
		back, err := ParseJobSpec(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canon, err)
		}
		if again := back.CanonicalJSON(); !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point:\n first %s\nsecond %s", canon, again)
		}
		if back.Key() != s.Key() {
			t.Fatalf("cache key drifted across the round trip: %s vs %s", s.Key(), back.Key())
		}
	})
}
