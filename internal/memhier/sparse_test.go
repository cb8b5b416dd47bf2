package memhier

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseMemReadWrite(t *testing.T) {
	m := NewSparseMem()
	if m.Read(0x8000_0000, 4) != 0 {
		t.Error("unwritten memory not zero")
	}
	m.Write(0x8000_0000, 4, 0xdeadbeef)
	if got := m.Read(0x8000_0000, 4); got != 0xdeadbeef {
		t.Errorf("Read = %#x", got)
	}
	// Little-endian byte order.
	if got := m.ByteAt(0x8000_0000); got != 0xef {
		t.Errorf("low byte = %#x, want 0xef", got)
	}
	if got := m.Read(0x8000_0002, 2); got != 0xdead {
		t.Errorf("high half = %#x, want 0xdead", got)
	}
}

func TestSparseMemCrossPageBoundary(t *testing.T) {
	m := NewSparseMem()
	addr := uint32(1<<sparsePageBits - 2) // straddles two 4K pages
	m.Write(addr, 4, 0x11223344)
	if got := m.Read(addr, 4); got != 0x11223344 {
		t.Errorf("cross-page read = %#x", got)
	}
}

func TestSparseMemRanges(t *testing.T) {
	m := NewSparseMem()
	data := []byte("the quick brown fox jumps over the lazy dog")
	m.WriteRange(0x9000_0100, data)
	if got := m.ReadRange(0x9000_0100, len(data)); !bytes.Equal(got, data) {
		t.Errorf("ReadRange = %q", got)
	}
}

func TestSparseMemQuick(t *testing.T) {
	m := NewSparseMem()
	prop := func(addr uint32, v uint32) bool {
		m.Write(addr, 4, v)
		return m.Read(addr, 4) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSparseMemFootprint(t *testing.T) {
	m := NewSparseMem()
	if m.Footprint() != 0 {
		t.Error("fresh memory has footprint")
	}
	m.SetByte(0, 1)
	m.SetByte(1<<sparsePageBits, 1)
	if m.Footprint() != 2<<sparsePageBits {
		t.Errorf("footprint = %d", m.Footprint())
	}
}

func TestSparseMemRandomizedAgainstMap(t *testing.T) {
	m := NewSparseMem()
	ref := make(map[uint32]byte)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		addr := uint32(rng.Intn(1 << 20))
		if rng.Intn(2) == 0 {
			b := byte(rng.Intn(256))
			m.SetByte(addr, b)
			ref[addr] = b
		} else if m.ByteAt(addr) != ref[addr] {
			t.Fatalf("mismatch at %#x", addr)
		}
	}
}

// TestSparseMemWordAccessesAgainstBytes checks the one-lookup word paths
// against a byte map at every alignment around page boundaries, including
// accesses that straddle two pages and one that wraps the address space.
func TestSparseMemWordAccessesAgainstBytes(t *testing.T) {
	m := NewSparseMem()
	ref := make(map[uint32]byte)
	refRead := func(addr uint32, size int) uint32 {
		var v uint32
		for i := 0; i < size; i++ {
			v |= uint32(ref[addr+uint32(i)]) << (8 * i)
		}
		return v
	}
	rng := rand.New(rand.NewSource(5))
	bases := []uint32{0, 1 << sparsePageBits, 7 << sparsePageBits, 0xFFFF_F000, 0}
	for round := 0; round < 4; round++ {
		for _, base := range bases {
			for off := -5; off <= 5; off++ {
				addr := base + uint32(off)
				for _, size := range []int{1, 2, 4} {
					if rng.Intn(2) == 0 {
						v := rng.Uint32()
						m.Write(addr, size, v)
						for i := 0; i < size; i++ {
							ref[addr+uint32(i)] = byte(v >> (8 * i))
						}
					}
					if got, want := m.Read(addr, size), refRead(addr, size); got != want {
						t.Fatalf("Read(%#x, %d) = %#x, want %#x", addr, size, got, want)
					}
				}
			}
		}
	}
	for _, base := range bases {
		addr := base - 3000
		got := m.ReadRange(addr, 9000)
		for i, b := range got {
			if want := ref[addr+uint32(i)]; b != want {
				t.Fatalf("ReadRange(%#x)[%d] = %#x, want %#x", addr, i, b, want)
			}
		}
	}
}

// TestSparseMemReadsCreateNoPages pins that reads of unwritten memory —
// inside a page, straddling two pages, or a range over several — return
// zero and leave the footprint alone, while writes of either kind create
// exactly the pages they touch.
func TestSparseMemReadsCreateNoPages(t *testing.T) {
	m := NewSparseMem()
	page := uint32(1 << sparsePageBits)
	if m.Read(5*page+8, 4) != 0 || m.Read(6*page-2, 4) != 0 || m.Read(0xFFFF_FFFE, 4) != 0 {
		t.Fatal("unwritten memory does not read as zero")
	}
	for _, b := range m.ReadRange(3*page-10, int(3*page)) {
		if b != 0 {
			t.Fatal("unwritten range does not read as zero")
		}
	}
	if m.Footprint() != 0 {
		t.Fatalf("reads created pages: footprint %d", m.Footprint())
	}
	m.Write(9*page-2, 4, 0x11223344) // straddles pages 8 and 9
	m.Write(20*page+4, 4, 1)
	m.Write(30*page, 0, 1)                             // a zero-size write touches nothing
	m.WriteRange(40*page-1, make([]byte, int(page)+2)) // pages 39, 40, 41
	if want := 6 * int(page); m.Footprint() != want {
		t.Fatalf("footprint %d, want %d", m.Footprint(), want)
	}
	if m.Read(8*page, 4) != 0 || m.Read(9*page+2, 2) != 0 {
		t.Fatal("straddling write spilled outside its bytes")
	}
	if got := m.Read(9*page-1, 2); got != 0x2233 {
		t.Fatalf("straddling read = %#x, want 0x2233", got)
	}
}
