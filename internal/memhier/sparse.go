// Package memhier models the memory hierarchies of the evaluated in-SSD
// compute engines (Table IV): set-associative write-back caches backed by
// the shared SSD DRAM, a DCPT-style delta prefetcher, single-cycle
// scratchpads, and the ASSASIN input/output stream buffers with their
// prefetched head FIFO. Caches are timing models; scratchpads, stream
// buffers and the sparse backing store also carry functional data so that
// kernels compute real results.
package memhier

import "fmt"

const (
	sparsePageBits = 12 // 4 KiB functional pages
	sparsePageSize = 1 << sparsePageBits
	sparsePageMask = sparsePageSize - 1
)

// SparseMem is a functional byte-addressable memory backed by a page map.
// It stores data for the DRAM address space (staging buffers, kernel spill).
// Values are little-endian. Unwritten bytes read as zero.
type SparseMem struct {
	pages map[uint32][]byte
}

// NewSparseMem returns an empty memory.
func NewSparseMem() *SparseMem {
	return &SparseMem{pages: make(map[uint32][]byte)}
}

func (m *SparseMem) page(addr uint32, create bool) []byte {
	pn := addr >> sparsePageBits
	p := m.pages[pn]
	if p == nil && create {
		p = make([]byte, sparsePageSize)
		m.pages[pn] = p
	}
	return p
}

// ByteAt returns the byte at addr.
func (m *SparseMem) ByteAt(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&sparsePageMask]
}

// SetByte stores b at addr.
func (m *SparseMem) SetByte(addr uint32, b byte) {
	m.page(addr, true)[addr&sparsePageMask] = b
}

// inPage reports whether the n bytes at addr lie in one page (so they
// neither cross a page boundary nor wrap the address space).
func inPage(addr uint32, n int) bool {
	return int(addr&sparsePageMask)+n <= sparsePageSize
}

// Read returns size (1, 2 or 4) bytes at addr, little-endian. An access
// inside one page looks the page up once; one that straddles a page
// boundary goes byte by byte.
func (m *SparseMem) Read(addr uint32, size int) uint32 {
	var v uint32
	if inPage(addr, size) {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		off := addr & sparsePageMask
		for i, b := range p[off : off+uint32(size)] {
			v |= uint32(b) << (8 * i)
		}
		return v
	}
	for i := 0; i < size; i++ {
		v |= uint32(m.ByteAt(addr+uint32(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian, with one
// page lookup when the access stays inside a page.
func (m *SparseMem) Write(addr uint32, size int, v uint32) {
	if size <= 0 {
		return
	}
	if inPage(addr, size) {
		off := addr & sparsePageMask
		p := m.page(addr, true)[off : off+uint32(size)]
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// ReadRange copies length bytes starting at addr into a new slice, one page
// lookup per page touched. Unwritten pages read as zero and are not
// created.
func (m *SparseMem) ReadRange(addr uint32, length int) []byte {
	out := make([]byte, length)
	for done := 0; done < length; {
		a := addr + uint32(done)
		off := int(a & sparsePageMask)
		n := min(length-done, sparsePageSize-off)
		if p := m.page(a, false); p != nil {
			copy(out[done:done+n], p[off:])
		}
		done += n
	}
	return out
}

// WriteRange copies data into memory starting at addr, one page lookup per
// page touched.
func (m *SparseMem) WriteRange(addr uint32, data []byte) {
	for done := 0; done < len(data); {
		a := addr + uint32(done)
		off := int(a & sparsePageMask)
		done += copy(m.page(a, true)[off:], data[done:])
	}
}

// Footprint returns the number of bytes of allocated backing pages.
func (m *SparseMem) Footprint() int { return len(m.pages) << sparsePageBits }

// String summarizes the memory for diagnostics.
func (m *SparseMem) String() string {
	return fmt.Sprintf("SparseMem{%d pages}", len(m.pages))
}
