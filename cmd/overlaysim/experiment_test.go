package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

var update = flag.Bool("update", false, "rewrite the golden stdout files under testdata/")

// TestExperimentCommandsMatchSpec is the oracle for the experiment
// subcommands: for each experiment at a tiny size, the CLI's -json bytes
// equal the export JobSpec.Run builds for the same invocation, and the
// CLI's stdout report equals the golden file under testdata/. Run with
// -update to re-record the golden files after an intended report change.
func TestExperimentCommandsMatchSpec(t *testing.T) {
	cases := [][]string{
		{"fork", "-bench=hmmer", "-warm=20000", "-measure=40000"},
		{"spmv", "-matrices=2", "-dense"},
		{"linesize", "-matrices=2"},
		{"sweep", "-points=2", "-rows=64"},
		{"dualcore"},
		{"compare", "-bench=hmmer", "-warm=20000", "-measure=40000", "-matrices=1"},
		{"omsstress", "-tenants=2", "-ops=500", "-segments=16", "-oms-capacity=2"},
	}
	for _, args := range cases {
		args := args
		t.Run(args[0], func(t *testing.T) {
			spec, err := exp.SpecFromArgs(args)
			if err != nil {
				t.Fatalf("SpecFromArgs(%v): %v", args, err)
			}
			out, err := spec.Run(context.Background(), exp.Pool{Parallel: 1})
			if err != nil {
				t.Fatalf("spec.Run: %v", err)
			}
			var want bytes.Buffer
			if err := out.Export.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}

			jsonPath := filepath.Join(t.TempDir(), "out.json")
			var stdout, stderr bytes.Buffer
			if code := run(append(args, "-json="+jsonPath), &stdout, &stderr); code != 0 {
				t.Fatalf("%v exited %d, stderr: %s", args, code, stderr.String())
			}
			got, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("CLI -json differs from spec.Run export (%d vs %d bytes)", len(got), want.Len())
			}

			golden := filepath.Join("testdata", args[0]+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantOut, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), wantOut) {
				t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, stdout.Bytes(), wantOut)
			}
		})
	}
}

// TestTracelogWithoutSimulatorTrace covers -tracelog on an experiment
// with no simulator trace ring: the file is still a Chrome trace_event
// document, carrying the host-side spans as pid-0 "X" records.
func TestTracelogWithoutSimulatorTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "linesize.trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"linesize", "-matrices=1", "-tracelog=" + tracePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("linesize exited %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Pid float64 `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON (%d bytes): %v", len(raw), err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 0 {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("trace has no pid-0 span records: %s", raw)
	}
}
