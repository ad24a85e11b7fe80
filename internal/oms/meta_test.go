package oms

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refMeta is the reference model for segment metadata: the Figure 7
// layout read and written one bit at a time through mem.Read/mem.Write,
// the way the store accessed it before word-level access. It mirrors
// the metadata and data-line effects of every store operation onto its
// own Memory, which the differential test compares byte for byte with
// the store's.
type refMeta struct{ m *mem.Memory }

func (r refMeta) readBits(base arch.PhysAddr, bitOff, width uint) uint32 {
	ppn, off := arch.PPN(base.Page()), uint64(base)&arch.PageMask
	var v uint32
	for i := uint(0); i < width; i++ {
		bit := bitOff + i
		b := r.m.Read(ppn, off+uint64(bit/8))
		v |= uint32(b>>(bit%8)&1) << i
	}
	return v
}

func (r refMeta) writeBits(base arch.PhysAddr, bitOff, width uint, v uint32) {
	ppn, off := arch.PPN(base.Page()), uint64(base)&arch.PageMask
	for i := uint(0); i < width; i++ {
		bit := bitOff + i
		byteOff := off + uint64(bit/8)
		b := r.m.Read(ppn, byteOff)
		if v>>i&1 != 0 {
			b |= 1 << (bit % 8)
		} else {
			b &^= 1 << (bit % 8)
		}
		r.m.Write(ppn, byteOff, b)
	}
}

func (r refMeta) alloc(base arch.PhysAddr, class int) {
	if class == NumClasses-1 {
		return
	}
	var zero [arch.LineSize]byte
	r.m.WriteSpan(arch.PPN(base.Page()), uint64(base)&arch.PageMask, zero[:])
	r.writeBits(base, 320, 32, uint32(1)<<uint(ClassSlots(class))-1)
}

func (r refMeta) locate(base arch.PhysAddr, class, line int) (arch.PhysAddr, bool) {
	if class == NumClasses-1 {
		return base + arch.PhysAddr(line*arch.LineSize), true
	}
	slot := int(r.readBits(base, uint(line)*5, 5))
	if slot == 0 {
		return 0, false
	}
	return base + arch.PhysAddr(slot*arch.LineSize), true
}

func (r refMeta) insert(base arch.PhysAddr, class, line int) (arch.PhysAddr, bool) {
	if addr, ok := r.locate(base, class, line); ok {
		return addr, false
	}
	fv := r.readBits(base, 320, 32)
	if fv == 0 {
		return 0, true
	}
	slot := 1
	for fv&1 == 0 {
		fv >>= 1
		slot++
	}
	r.writeBits(base, 320, 32, r.readBits(base, 320, 32)&^(1<<uint(slot-1)))
	r.writeBits(base, uint(line)*5, 5, uint32(slot))
	return base + arch.PhysAddr(slot*arch.LineSize), false
}

func (r refMeta) remove(base arch.PhysAddr, class, line int) {
	if class == NumClasses-1 {
		return
	}
	slot := r.readBits(base, uint(line)*5, 5)
	if slot == 0 {
		return
	}
	r.writeBits(base, uint(line)*5, 5, 0)
	r.writeBits(base, 320, 32, r.readBits(base, 320, 32)|1<<(slot-1))
}

func (r refMeta) migrate(oldBase, newBase arch.PhysAddr, oldClass int, obits arch.OBitVector) {
	r.alloc(newBase, oldClass+1)
	for _, line := range obits.Lines() {
		src, ok := r.locate(oldBase, oldClass, line)
		if !ok {
			continue
		}
		dst, _ := r.insert(newBase, oldClass+1, line)
		r.m.CopySpan(arch.PPN(dst.Page()), uint64(dst)&arch.PageMask,
			arch.PPN(src.Page()), uint64(src)&arch.PageMask, arch.LineSize)
	}
}

// liveSeg is one segment the differential test holds.
type liveSeg struct {
	base  arch.PhysAddr
	class int
	obits arch.OBitVector // lines inserted and not removed
}

// TestMetadataMatchesBitReference runs seeded random segment churn over
// every class through the store and the bit-at-a-time reference and,
// after every operation, requires identical metadata lines and identical
// copy-on-write accounting — including after snapshots mark the store's
// frames shared.
func TestMetadataMatchesBitReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := mem.New(1 << 10)
			var st sim.Stats
			s, err := New(m, &st, 2)
			if err != nil {
				t.Fatal(err)
			}
			ref := refMeta{m: mem.New(1 << 10)}
			rng := rand.New(rand.NewSource(seed))
			var segs []liveSeg
			var data [arch.LineSize]byte
			fulls := 0

			compare := func(step int, op string) {
				t.Helper()
				if got, want := m.BytesCopied(), ref.m.BytesCopied(); got != want {
					t.Fatalf("step %d (%s): BytesCopied = %d, reference %d", step, op, got, want)
				}
				var a, b [arch.LineSize]byte
				for _, sg := range segs {
					ppn, off := arch.PPN(sg.base.Page()), uint64(sg.base)&arch.PageMask
					m.ReadSpan(ppn, off, a[:])
					ref.m.ReadSpan(ppn, off, b[:])
					if a != b {
						t.Fatalf("step %d (%s): metadata line of class-%d segment %#x = %x, reference %x",
							step, op, sg.class, uint64(sg.base), a, b)
					}
				}
			}

			for step := 0; step < 3000; step++ {
				var op string
				switch k := rng.Intn(20); {
				case k < 4 || len(segs) == 0:
					op = "alloc"
					class := rng.Intn(NumClasses)
					base, err := s.AllocSegment(class)
					if err != nil {
						t.Fatal(err)
					}
					ref.alloc(base, class)
					segs = append(segs, liveSeg{base: base, class: class})
				case k < 6:
					op = "free"
					i := rng.Intn(len(segs))
					s.FreeSegment(segs[i].base)
					segs[i] = segs[len(segs)-1]
					segs = segs[:len(segs)-1]
				case k < 13:
					op = "insert"
					sg := &segs[rng.Intn(len(segs))]
					line := rng.Intn(arch.LinesPerPage)
					addr, full := s.InsertLine(sg.base, line)
					raddr, rfull := ref.insert(sg.base, sg.class, line)
					if addr != raddr || full != rfull {
						t.Fatalf("step %d: InsertLine(%d) = %#x,%v, reference %#x,%v",
							step, line, uint64(addr), full, uint64(raddr), rfull)
					}
					if full {
						fulls++
						break
					}
					sg.obits = sg.obits.Set(line)
					rng.Read(data[:])
					s.WriteLineData(addr, data[:])
					ref.m.WriteSpan(arch.PPN(addr.Page()), uint64(addr)&arch.PageMask, data[:])
				case k < 16:
					op = "remove"
					sg := &segs[rng.Intn(len(segs))]
					line := rng.Intn(arch.LinesPerPage)
					s.RemoveLine(sg.base, line)
					ref.remove(sg.base, sg.class, line)
					if sg.class < NumClasses-1 {
						sg.obits = sg.obits.Clear(line)
					}
				case k < 19:
					op = "migrate"
					sg := &segs[rng.Intn(len(segs))]
					if sg.class == NumClasses-1 {
						break
					}
					newBase, err := s.Migrate(sg.base, sg.obits)
					if err != nil {
						t.Fatal(err)
					}
					ref.migrate(sg.base, newBase, sg.class, sg.obits)
					sg.base = newBase
					sg.class++
				default:
					op = "snapshot"
					m.Snapshot()
					ref.m.Snapshot()
				}
				compare(step, op)
			}
			if m.BytesCopied() == 0 || fulls == 0 || st.Get("oms.migrations") == 0 {
				t.Fatalf("churn missed a path: bytes copied %d, full inserts %d, migrations %d",
					m.BytesCopied(), fulls, st.Get("oms.migrations"))
			}
		})
	}
}
