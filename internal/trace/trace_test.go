package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/workload"
)

func roundTrip(t *testing.T, instrs []cpu.Instr) []cpu.Instr {
	t.Helper()
	var buf bytes.Buffer
	n, err := Record(&buf, cpu.NewSliceTrace(instrs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(instrs)) {
		t.Fatalf("recorded %d, want %d", n, len(instrs))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []cpu.Instr
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	instrs := []cpu.Instr{
		{Kind: cpu.Compute, N: 7},
		{Kind: cpu.Load, VA: 0x1000},
		{Kind: cpu.Store, VA: 0x1040},
		{Kind: cpu.LoadOverlay, VA: 0x100},
		{Kind: cpu.Compute, N: 1},
		{Kind: cpu.Load, VA: 0xffffff000},
	}
	out := roundTrip(t, instrs)
	if len(out) != len(instrs) {
		t.Fatalf("got %d instrs", len(out))
	}
	for i := range instrs {
		want := instrs[i]
		if want.Kind == cpu.Compute && want.N < 1 {
			want.N = 1
		}
		if out[i] != want {
			t.Fatalf("instr %d: %+v != %+v", i, out[i], want)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		instrs := make([]cpu.Instr, int(count)+1)
		for i := range instrs {
			switch rng.Intn(4) {
			case 0:
				instrs[i] = cpu.Instr{Kind: cpu.Compute, N: 1 + rng.Intn(32)}
			case 1:
				instrs[i] = cpu.Instr{Kind: cpu.Load, VA: arch.VirtAddr(rng.Int63n(1 << 47))}
			case 2:
				instrs[i] = cpu.Instr{Kind: cpu.Store, VA: arch.VirtAddr(rng.Int63n(1 << 47))}
			default:
				instrs[i] = cpu.Instr{Kind: cpu.LoadOverlay, VA: arch.VirtAddr(rng.Int63n(1 << 47))}
			}
		}
		out := roundTrip(t, instrs)
		if len(out) != len(instrs) {
			return false
		}
		for i := range instrs {
			if out[i] != instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecordLimit(t *testing.T) {
	spec, _ := workload.ByName("hmmer")
	var buf bytes.Buffer
	n, err := Record(&buf, spec.NewTrace(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("recorded %d, want 1000", n)
	}
}

func TestWorkloadTraceRoundTrip(t *testing.T) {
	// Record a real benchmark prefix and replay it: byte-identical stream.
	spec, _ := workload.ByName("mcf")
	var buf bytes.Buffer
	if _, err := Record(&buf, spec.NewTrace(), 5000); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ref := spec.NewTrace()
	for i := 0; i < 5000; i++ {
		want, _ := ref.Next()
		got, ok := r.Next()
		if !ok {
			t.Fatalf("replay ended early at %d", i)
		}
		if got != want {
			t.Fatalf("instr %d: %+v != %+v", i, got, want)
		}
	}
}

func TestCompression(t *testing.T) {
	// Delta encoding should keep sequential address streams near 2-3
	// bytes per record.
	var instrs []cpu.Instr
	for i := 0; i < 10000; i++ {
		instrs = append(instrs, cpu.Instr{Kind: cpu.Load, VA: arch.VirtAddr(i * 64)})
	}
	var buf bytes.Buffer
	Record(&buf, cpu.NewSliceTrace(instrs), 0)
	perRecord := float64(buf.Len()) / 10000
	if perRecord > 3.2 {
		t.Fatalf("encoding too fat: %.1f bytes/record", perRecord)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	instrs := []cpu.Instr{{Kind: cpu.Load, VA: 0x123456}}
	var buf bytes.Buffer
	Record(&buf, cpu.NewSliceTrace(instrs), 0)
	trunc := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

// FuzzTraceReader feeds arbitrary bytes to the decoder `trace -in`
// replays. It must never panic, and the instructions it accepts before
// Err reports a failure must re-encode through Writer and decode to the
// same instructions.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var accepted []cpu.Instr
		for {
			in, ok := r.Next()
			if !ok {
				break
			}
			accepted = append(accepted, in)
		}
		back := roundTrip(t, accepted)
		if len(back) != len(accepted) {
			t.Fatalf("re-encoded %d instructions, decoded %d", len(accepted), len(back))
		}
		for i := range accepted {
			if back[i] != accepted[i] {
				t.Fatalf("instruction %d: decoded %+v, re-encoded and decoded %+v", i, accepted[i], back[i])
			}
		}
	})
}
