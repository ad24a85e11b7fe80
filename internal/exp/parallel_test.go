package exp

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TestSweepParallelBitIdentical is the core determinism claim: the
// sparsity sweep produces bit-identical results at -parallel 1 and
// -parallel 8, because every point owns its engine and seeded RNGs.
func TestSweepParallelBitIdentical(t *testing.T) {
	seq, err := RunSparsitySweepPool(context.Background(), Pool{Parallel: 1}, 6, 128)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSparsitySweepPool(context.Background(), Pool{Parallel: 8}, 6, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep diverges across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestForkSuiteParallelBitIdentical compares the simulated fork
// metrics between the sequential wrapper and an 4-worker pool run.
func TestForkSuiteParallelBitIdentical(t *testing.T) {
	params := QuickForkParams()
	names := []string{"hmmer", "mcf"}
	seq, err := RunForkSuite(params, names)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunForkSuitePool(context.Background(), Pool{Parallel: 4}, params, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Benchmark != p.Benchmark {
			t.Fatalf("result %d ordering differs: %s vs %s", i, s.Benchmark, p.Benchmark)
		}
		for _, m := range []struct {
			name     string
			seq, par MechanismResult
		}{{"cow", s.CoW, p.CoW}, {"oow", s.OoW, p.OoW}} {
			if m.seq.Cycles != m.par.Cycles || m.seq.AddedBytes != m.par.AddedBytes ||
				m.seq.PageCopies != m.par.PageCopies || m.seq.Overlaying != m.par.Overlaying ||
				m.seq.CPI != m.par.CPI {
				t.Errorf("%s/%s metrics diverge across worker counts:\nseq: %+v\npar: %+v",
					s.Benchmark, m.name, m.seq, m.par)
			}
		}
	}
}

// TestFigure10and11PoolMatchSequential checks the SpMV sweep and the
// analytic line-size sweep keep their ordering and values under the
// pool.
func TestFigure10and11PoolMatchSequential(t *testing.T) {
	seq10, err := RunFigure10(3, false)
	if err != nil {
		t.Fatal(err)
	}
	par10, err := RunFigure10Pool(context.Background(), Pool{Parallel: 8}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq10, par10) {
		t.Errorf("Figure 10 diverges across worker counts")
	}

	seq11 := RunFigure11(8)
	par11, err := RunFigure11Pool(context.Background(), Pool{Parallel: 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq11, par11) {
		t.Errorf("Figure 11 diverges across worker counts")
	}
}

// TestDualCorePoolMatchesDirect checks the pooled dual-core runner
// returns the same two mechanisms in print order.
func TestDualCorePoolMatchesDirect(t *testing.T) {
	pooled, err := RunDualCorePool(context.Background(), Pool{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct := []DualCoreResult{RunDualCoreDivergence(true), RunDualCoreDivergence(false)}
	if !reflect.DeepEqual(pooled, direct) {
		t.Fatalf("dual-core diverges:\npooled: %+v\ndirect: %+v", pooled, direct)
	}
}

// TestSweepPoolCancelled verifies a cancelled context aborts the sweep
// with a context error instead of hanging or panicking.
func TestSweepPoolCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSparsitySweepPool(ctx, Pool{Parallel: 2}, 4, 64)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v, want context cancellation", err)
	}
}

// TestPoolProgressReporting checks the live progress line reaches the
// pool's writer.
func TestPoolProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunSparsitySweepPool(context.Background(), Pool{Parallel: 2, Progress: &buf}, 3, 64); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "sweep: 3/3 jobs") {
		t.Errorf("progress output missing:\n%q", out)
	}
}

// TestSuiteSubsetMatchesBuildSuite checks that building the suite on the
// job's pool changes nothing: at every worker count the result equals
// sparse.BuildSuite — same order, names, L, non-zero counts and row
// contents (BuildSuite's own content is pinned by a digest in
// internal/sparse).
func TestSuiteSubsetMatchesBuildSuite(t *testing.T) {
	want := sparse.BuildSuite()
	for _, parallel := range []int{1, 2, 8} {
		got, err := suiteSubset(context.Background(), Pool{Parallel: parallel}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallel=%d: %d matrices, want %d", parallel, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.L() != w.L() || g.NNZ() != w.NNZ() {
				t.Fatalf("parallel=%d: matrix %d = %s (L %v, nnz %d), want %s (L %v, nnz %d)",
					parallel, i, g.Name, g.L(), g.NNZ(), w.Name, w.L(), w.NNZ())
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("parallel=%d: matrix %d (%s) rows differ from BuildSuite", parallel, i, w.Name)
			}
		}
	}
	sub, err := suiteSubset(context.Background(), Pool{Parallel: 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range sub {
		if want := want[i*len(want)/6]; m.Name != want.Name {
			t.Fatalf("subset entry %d = %s, want %s", i, m.Name, want.Name)
		}
	}
}
