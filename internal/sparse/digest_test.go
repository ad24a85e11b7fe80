package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

// Digests recorded from the generators before their queues and the
// suite builder were optimised. A mismatch means the instruction stream
// or the suite's contents changed, which changes every SpMV export.
const (
	denseTraceDigest   = "ef1417dc0351235bca5e193e0dc1095bf292b698d9fad0f64eb1e3552cac59d2"
	csrTraceDigest     = "86b60864e3b71d0eed85f53e32aa3b07e5b697eaf7596555670f69b4a6881658"
	overlayTraceDigest = "f6edf1ad0405ec1c35809d97bf82f877ee1ee21d42df208dd909649285c28de2"
	suiteDigest        = "ea2840b232a463f918c53c722e790e96830f64cd367df266e99c8a462609120b"
)

// traceDigest drains tr and hashes every instruction's kind, address and
// count, returning the hex digest and the instruction count.
func traceDigest(tr cpu.Trace) (string, int) {
	h := sha256.New()
	var buf [17]byte
	n := 0
	for {
		in, ok := tr.Next()
		if !ok {
			break
		}
		buf[0] = byte(in.Kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(in.VA))
		binary.LittleEndian.PutUint64(buf[9:], uint64(in.N))
		h.Write(buf[:])
		n++
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// pinFramework builds a framework sized for one 2048×2048 suite matrix
// plus its operand vectors (the spmv experiment's sizing rule).
func pinFramework(t *testing.T, m *Matrix) *core.Framework {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MemoryPages = 2 * (m.DenseBytes()/4096 + 8192)
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTraceStreamsPinned pins the full instruction stream of all three
// SpMV trace generators on the suite's first matrix.
func TestTraceStreamsPinned(t *testing.T) {
	m := SuiteSpecs()[0].Build()
	check := func(name, want string, tr cpu.Trace) {
		t.Helper()
		got, n := traceDigest(tr)
		if got != want {
			t.Errorf("%s trace digest over %d instructions = %s, want %s", name, n, got, want)
		}
	}

	f := pinFramework(t, m)
	layout, err := MapDense(f, f.VM.NewProcess(), m)
	if err != nil {
		t.Fatal(err)
	}
	check("dense", denseTraceDigest, DenseTrace(m, layout))

	c := NewCSR(m)
	f = pinFramework(t, m)
	layout, err = MapCSR(f, f.VM.NewProcess(), c)
	if err != nil {
		t.Fatal(err)
	}
	check("csr", csrTraceDigest, CSRTrace(c, layout))

	f = pinFramework(t, m)
	o, layout, err := MapOverlay(f, f.VM.NewProcess(), m)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := OverlayTrace(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	check("overlay", overlayTraceDigest, tr)
}

// hashMatrix feeds a matrix's name, shape, L and every row's columns and
// value bits into h.
func hashMatrix(h hash.Hash, m *Matrix) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(m.Name))
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	put(uint64(m.NNZ()))
	put(math.Float64bits(m.L()))
	for r := 0; r < m.Rows; r++ {
		put(uint64(len(m.RowCols[r])))
		for i, c := range m.RowCols[r] {
			put(uint64(c))
			put(math.Float64bits(m.RowVals[r][i]))
		}
	}
}

// suiteContentDigest hashes every matrix of ms, in order.
func suiteContentDigest(ms []*Matrix) string {
	h := sha256.New()
	for _, m := range ms {
		hashMatrix(h, m)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuiteContentPinned pins the content of all 87 suite matrices, in
// BuildSuite order. Any shift in the generators' random stream fails
// here by name.
func TestSuiteContentPinned(t *testing.T) {
	if got := suiteContentDigest(BuildSuite()); got != suiteDigest {
		t.Fatalf("suite content digest = %s, want %s", got, suiteDigest)
	}
}

// BenchmarkSpMVTrace drains the CSR trace of the suite's first matrix;
// one op is one full SpMV iteration, with trace construction outside
// the timed and counted region. CI gates on 0 allocs/op: a trace queue
// that reallocates on refill shows up here as thousands per op.
func BenchmarkSpMVTrace(b *testing.B) {
	c := NewCSR(SuiteSpecs()[0].Build())
	l := Layout{ValsBase: 0, ColsBase: 1 << 24, RowPtrBase: 2 << 24, XBase: 3 << 24, YBase: 4 << 24}
	b.ReportAllocs()
	b.ResetTimer()
	instrs := 0
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		tr := CSRTrace(c, l)
		b.StartTimer()
		for {
			if _, ok := tr.Next(); !ok {
				break
			}
			instrs++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkBuildSuite measures generating all 87 suite matrices and
// sorting them by L, the serial input phase of every suite experiment.
func BenchmarkBuildSuite(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if ms := BuildSuite(); len(ms) != SuiteSize {
			b.Fatalf("suite has %d matrices", len(ms))
		}
	}
}
