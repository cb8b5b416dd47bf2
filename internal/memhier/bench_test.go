package memhier

import (
	"testing"

	"assasin/internal/sim"
)

func BenchmarkCacheHit(b *testing.B) {
	c := NewCache(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, DRAMLevel{testDRAM()})
	c.Access(0, 0x8000_0000, 4, false, 1, "b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(sim.Time(i), 0x8000_0000+uint32(i%16)*4, 4, false, 1, "b")
	}
}

func BenchmarkCacheMissStream(b *testing.B) {
	c := NewCache(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, DRAMLevel{testDRAM()})
	b.ResetTimer()
	addr := uint32(0x8000_0000)
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		at = c.Access(at, addr, 4, false, 1, "b")
		addr += 64
	}
}

// BenchmarkCachePrefetch runs the Prefetch configuration's hierarchy (a
// DCPT-prefetched 32 KiB L1 over a 256 KiB L2) under one sequential stream
// plus an AES-like cycle of 160 load PCs, which overflows the prefetch
// table on every access. One op is one access of each kind.
func BenchmarkCachePrefetch(b *testing.B) {
	l2 := NewCache(CacheConfig{Name: "l2", Size: 256 << 10, Ways: 16, LineSize: 64, HitLatency: 10 * sim.Nanosecond}, DRAMLevel{testDRAM()})
	l1 := NewCache(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, l2)
	l1.AttachPrefetcher(NewPrefetcher(8))
	const tablePCs = 160
	stream := uint32(0x8000_0000)
	at := sim.Time(0)
	step := func(i int) {
		at = l1.Access(at, stream, 4, false, 1, "b")
		stream += 4
		pc := uint32(i % tablePCs)
		l1.Access(at, 0x9000_0000+pc*64+uint32(i*37)%64, 4, false, 0x100+4*pc, "b")
		at += sim.Nanosecond
	}
	for i := 0; i < 2*tablePCs; i++ { // fill the table and the DRAM client map
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

func BenchmarkStreamLoad(b *testing.B) {
	s := NewInStream(64, 4096)
	page := make([]byte, 4096)
	b.SetBytes(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Buffered() < 4 {
			b.StopTimer()
			for s.CanPush(4096) {
				s.Push(page, 0)
			}
			b.StartTimer()
		}
		s.Load(0, 4)
	}
}

// BenchmarkStreamBulkCopy measures the page-granular bulk stream paths the
// compiled interpreter and firmware ride: Push into an InStream, CopyOut of the
// delivered window, and BulkAppend+Drain through an OutStream.
func BenchmarkStreamBulkCopy(b *testing.B) {
	const page = 4096
	in := NewInStream(8, page)
	out := NewOutStream(8, page)
	data := make([]byte, page)
	for i := range data {
		data[i] = byte(i)
	}
	dst := make([]byte, page)
	b.SetBytes(page)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Push(data, 0); err != nil {
			b.Fatal(err)
		}
		if n := in.CopyOut(dst, in.Head()); n != page {
			b.Fatalf("CopyOut = %d", n)
		}
		if err := in.Adv(page); err != nil {
			b.Fatal(err)
		}
		if !out.BulkAppend(dst) {
			b.Fatal("BulkAppend refused")
		}
		if got := out.Drain(page, 0); len(got) != page {
			b.Fatalf("Drain = %d", len(got))
		}
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := NewDRAM(DefaultDRAMConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(sim.Time(i)*100, 64, i&1 == 0, "b")
	}
}
