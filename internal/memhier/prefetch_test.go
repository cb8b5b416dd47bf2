package memhier

import (
	"fmt"
	"math/rand"
	"testing"

	"assasin/internal/sim"
)

// refPrefetcher is the straightforward DCPT the table-and-window Prefetcher
// must match bit for bit: a map of heap entries with a slice FIFO, and a
// probe of every one of the degree lines on each pattern hit.
type refPrefetcher struct {
	degree  int
	target  *Cache
	entries map[uint32]*refEntry
	order   []uint32
	stats   PrefetchStats
}

type refEntry struct {
	lastAddr  uint32
	lastDelta int32
}

func newRefPrefetcher(degree int, target *Cache) *refPrefetcher {
	return &refPrefetcher{degree: degree, target: target, entries: make(map[uint32]*refEntry)}
}

func (p *refPrefetcher) observe(at sim.Time, pc, addr uint32, client string) {
	p.stats.Observations++
	e := p.entries[pc]
	if e == nil {
		if len(p.order) >= dcptTableSize {
			oldest := p.order[0]
			p.order = p.order[1:]
			delete(p.entries, oldest)
		}
		p.entries[pc] = &refEntry{lastAddr: addr}
		p.order = append(p.order, pc)
		return
	}
	delta := int32(addr - e.lastAddr)
	if delta != 0 && delta == e.lastDelta {
		p.stats.PatternHits++
		lineSize := int32(p.target.cfg.LineSize)
		dir := int32(1)
		if delta < 0 {
			dir = -1
		}
		base := p.target.lineAddr(addr)
		for i := int32(1); i <= int32(p.degree); i++ {
			if p.target.Prefetch(at, base+uint32(dir*lineSize*i), client) {
				p.stats.Issued++
			}
		}
	}
	if delta != 0 {
		e.lastDelta = delta
		e.lastAddr = addr
	}
}

// prefetchPair is two identical cache hierarchies, one prefetched by
// Prefetcher and one by refPrefetcher.
type prefetchPair struct {
	l1, l2   [2]*Cache
	pf       *Prefetcher
	ref      *refPrefetcher
	touched  map[uint32]bool // every line any access touched
	recent   []uint32        // the lines the last access touched
	accesses int
	at       sim.Time
	degree   int
	lineSize uint32
}

func newPrefetchPair(l1cfg CacheConfig, stacked bool, degree int) *prefetchPair {
	pp := &prefetchPair{touched: make(map[uint32]bool), degree: degree, lineSize: uint32(l1cfg.LineSize)}
	for s := 0; s < 2; s++ {
		var next NextLevel = DRAMLevel{testDRAM()}
		if stacked {
			pp.l2[s] = NewCache(CacheConfig{Name: "l2", Size: 4 * l1cfg.Size, Ways: 8, LineSize: l1cfg.LineSize, HitLatency: 10 * sim.Nanosecond}, next)
			next = pp.l2[s]
		}
		pp.l1[s] = NewCache(l1cfg, next)
	}
	pp.pf = NewPrefetcher(degree)
	pp.l1[0].AttachPrefetcher(pp.pf)
	pp.ref = newRefPrefetcher(degree, pp.l1[1])
	return pp
}

// access runs one demand access through both hierarchies and checks that
// they agree on every observable.
func (pp *prefetchPair) access(t *testing.T, pc, addr uint32, size int, write bool, advance sim.Time) {
	t.Helper()
	got := pp.l1[0].Access(pp.at, addr, size, write, pc, "t")
	want := pp.l1[1].Access(pp.at, addr, size, write, pc, "t")
	pp.ref.observe(pp.at, pc, addr, "t")
	pp.accesses++
	if got != want {
		t.Fatalf("access %d (pc %#x addr %#x size %d): done %v, reference %v", pp.accesses, pc, addr, size, got, want)
	}
	// The lines this access and its prefetches can have changed.
	pp.recent = pp.recent[:0]
	for la := addr &^ (pp.lineSize - 1); ; la += pp.lineSize {
		for i := -pp.degree; i <= pp.degree; i++ {
			pp.recent = append(pp.recent, la+uint32(i)*pp.lineSize)
		}
		if la == (addr+uint32(size)-1)&^(pp.lineSize-1) {
			break
		}
	}
	for _, la := range pp.recent {
		pp.touched[la] = true
	}
	pp.check(t, pp.recent)
	pp.at += advance
	if got > pp.at && advance == 0 {
		pp.at = got
	}
}

// check compares the counters and the tag arrays of both hierarchies, and
// Contains over lines.
func (pp *prefetchPair) check(t *testing.T, lines []uint32) {
	t.Helper()
	if a, b := pp.pf.Stats(), pp.ref.stats; a != b {
		t.Fatalf("access %d: prefetch stats %+v, reference %+v", pp.accesses, a, b)
	}
	for _, c := range [][2]*Cache{pp.l1, pp.l2} {
		if c[0] == nil {
			continue
		}
		if a, b := c[0].Stats(), c[1].Stats(); a != b {
			t.Fatalf("access %d: %s stats %+v, reference %+v", pp.accesses, c[0].cfg.Name, a, b)
		}
		for si, set := range c[0].sets {
			for w, line := range set {
				if line != c[1].sets[si][w] {
					t.Fatalf("access %d: %s set %d way %d = %+v, reference %+v", pp.accesses, c[0].cfg.Name, si, w, line, c[1].sets[si][w])
				}
			}
		}
	}
	for _, la := range lines {
		if a, b := pp.l1[0].Contains(la), pp.l1[1].Contains(la); a != b {
			t.Fatalf("access %d: l1 Contains(%#x) = %v, reference %v", pp.accesses, la, a, b)
		}
	}
}

// checkAll is check over every line any access touched.
func (pp *prefetchPair) checkAll(t *testing.T) {
	t.Helper()
	lines := make([]uint32, 0, len(pp.touched))
	for la := range pp.touched {
		lines = append(lines, la)
	}
	pp.check(t, lines)
}

// traceConfig shapes a seeded random access trace.
type traceConfig struct {
	pcs      int     // distinct load/store PCs
	cyclic   bool    // visit PCs round-robin rather than at random
	region   uint32  // base of the address region
	span     uint32  // bytes the region covers
	flip     float64 // per-access chance a PC's stride changes sign
	restride float64 // per-access chance a PC picks a new stride
	jump     float64 // per-access chance a PC jumps to a random address
	rewind   float64 // per-access chance a PC steps back up to 64 strides
	steps    int
}

var strides = []int32{1, 2, 4, 4, 4, 8, 16, 60, 64, 64, 100, 128, 256, 4096}

func runTrace(t *testing.T, pp *prefetchPair, rng *rand.Rand, tc traceConfig) {
	t.Helper()
	type pcState struct {
		addr   uint32
		stride int32
	}
	st := make([]pcState, tc.pcs)
	for i := range st {
		st[i] = pcState{addr: tc.region + uint32(rng.Int63n(int64(tc.span))), stride: strides[rng.Intn(len(strides))]}
		if rng.Intn(2) == 0 {
			st[i].stride = -st[i].stride
		}
	}
	sizes := []int{1, 2, 4, 4, 8, 16}
	for n := 0; n < tc.steps; n++ {
		i := rng.Intn(tc.pcs)
		if tc.cyclic {
			i = n % tc.pcs
		}
		s := &st[i]
		switch r := rng.Float64(); {
		case r < tc.jump:
			s.addr = tc.region + uint32(rng.Int63n(int64(tc.span)))
		case r < tc.jump+tc.flip:
			s.stride = -s.stride
		case r < tc.jump+tc.flip+tc.restride:
			s.stride = strides[rng.Intn(len(strides))] * s.stride / abs32(s.stride)
		case r < tc.jump+tc.flip+tc.restride+tc.rewind:
			s.addr -= uint32(s.stride) * uint32(1+rng.Intn(64))
		}
		var advance sim.Time
		if rng.Intn(4) != 0 {
			advance = sim.Time(rng.Intn(20)) * sim.Nanosecond
		}
		pp.access(t, 0x1000+4*uint32(i), s.addr, sizes[rng.Intn(len(sizes))], rng.Intn(5) == 0, advance)
		s.addr += uint32(s.stride)
	}
	pp.checkAll(t)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// TestPrefetcherMatchesReference drives the table-and-window Prefetcher and
// the straightforward reference with the same seeded traces and requires
// identical completion times, counters and cache contents after every
// access.
func TestPrefetcherMatchesReference(t *testing.T) {
	l1 := CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}
	tiny := CacheConfig{Name: "tiny", Size: 512, Ways: 2, LineSize: 64} // 4 sets
	cases := []struct {
		name    string
		cfg     CacheConfig
		stacked bool
		degree  int
		trace   traceConfig
	}{
		{"streams", l1, false, 8, traceConfig{pcs: 6, region: 0x8000_0000, span: 1 << 20, flip: 0.002, restride: 0.002, jump: 0.001, rewind: 0.005, steps: 6000}},
		{"sign-changes", l1, false, 8, traceConfig{pcs: 8, region: 0x8000_0000, span: 1 << 16, flip: 0.05, restride: 0.02, jump: 0.01, rewind: 0.01, steps: 6000}},
		{"cycle-of-100-pcs", l1, false, 8, traceConfig{pcs: 100, cyclic: true, region: 0x8000_0000, span: 1 << 20, flip: 0.001, steps: 6000}},
		{"random-70-pcs", l1, false, 8, traceConfig{pcs: 70, region: 0x8000_0000, span: 1 << 18, flip: 0.01, restride: 0.01, jump: 0.01, rewind: 0.01, steps: 6000}},
		{"stacked-l1-l2", l1, true, 8, traceConfig{pcs: 10, region: 0x8000_0000, span: 1 << 20, flip: 0.01, restride: 0.01, jump: 0.005, rewind: 0.01, steps: 6000}},
		{"small-l1-on-l2", CacheConfig{Name: "l1", Size: 2048, Ways: 2, LineSize: 64}, true, 8, traceConfig{pcs: 5, region: 0x8000_0000, span: 1 << 14, flip: 0.01, restride: 0.01, jump: 0.005, rewind: 0.01, steps: 6000}},
		{"tiny-degree-8", tiny, false, 8, traceConfig{pcs: 4, region: 0x8000_0000, span: 1 << 12, flip: 0.01, restride: 0.01, jump: 0.005, rewind: 0.01, steps: 6000}},
		{"tiny-degree-4", tiny, false, 4, traceConfig{pcs: 3, region: 0x8000_0000, span: 1 << 12, flip: 0.01, restride: 0.01, jump: 0.005, rewind: 0.01, steps: 6000}},
		{"tiny-degree-3", tiny, false, 3, traceConfig{pcs: 3, region: 0x8000_0000, span: 1 << 12, flip: 0.01, restride: 0.01, jump: 0.005, rewind: 0.01, steps: 6000}},
		{"rewinds", l1, false, 8, traceConfig{pcs: 2, region: 0x8000_0000, span: 1 << 14, flip: 0.005, jump: 0.01, rewind: 0.03, steps: 6000}},
		{"tiny-rewinds", tiny, false, 8, traceConfig{pcs: 1, region: 0x8000_0000, span: 1 << 12, flip: 0.005, rewind: 0.03, steps: 6000}},
		{"address-wrap", l1, false, 8, traceConfig{pcs: 4, region: 0xffff_f000, span: 1 << 13, flip: 0.01, restride: 0.005, jump: 0.002, rewind: 0.005, steps: 6000}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				pp := newPrefetchPair(c.cfg, c.stacked, c.degree)
				runTrace(t, pp, rand.New(rand.NewSource(seed)), c.trace)
				if pp.pf.Stats().PatternHits == 0 && !c.trace.cyclic {
					t.Fatalf("trace never trained the prefetcher: %+v", pp.pf.Stats())
				}
			})
		}
	}
}

// TestPrefetcherCyclicPCsThrashTable pins the AES-shaped case: 160 load PCs
// visited round-robin overflow the 64-entry FIFO table, so every
// observation is a table miss and no pattern is ever detected, exactly as
// the reference behaves.
func TestPrefetcherCyclicPCsThrashTable(t *testing.T) {
	pp := newPrefetchPair(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, true, 8)
	for n := 0; n < 160*40; n++ {
		i := uint32(n % 160)
		pp.access(t, 0x1000+4*i, 0x8000_0000+i*256+uint32(n/160)*4, 4, false, sim.Nanosecond)
	}
	st := pp.pf.Stats()
	if st.PatternHits != 0 || st.Issued != 0 || st.Observations != 160*40 {
		t.Fatalf("160 cyclic PCs: %+v, want %d observations and no pattern hits", st, 160*40)
	}
}

// TestPrefetcherTableFIFO pins FIFO replacement: the oldest inserted PC is
// evicted whatever its use, and a re-inserted PC starts untrained.
func TestPrefetcherTableFIFO(t *testing.T) {
	pp := newPrefetchPair(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, false, 4)
	// Train pc 0 (two equal deltas need three accesses), then keep using
	// it while 63 other PCs fill the table: all stay resident.
	addr := uint32(0x8000_0000)
	step := func() { pp.access(t, 0, addr, 4, false, sim.Nanosecond); addr += 4 }
	step()
	step()
	step()
	for i := uint32(1); i < dcptTableSize; i++ {
		pp.access(t, 0x1000+4*i, 0x9000_0000+i*4096, 4, false, sim.Nanosecond)
		step()
	}
	hits := pp.pf.Stats().PatternHits
	if hits != dcptTableSize {
		t.Fatalf("pattern hits with a full table = %d, want %d", hits, dcptTableSize)
	}
	// One more new PC evicts pc 0, the oldest inserted, although it was
	// just used; its next access re-inserts it untrained.
	pp.access(t, 0x2000, 0xa000_0000, 4, false, sim.Nanosecond)
	step()
	step()
	if got := pp.pf.Stats().PatternHits; got != hits {
		t.Fatalf("evicted pc kept its pattern: hits %d → %d", hits, got)
	}
	step()
	if got := pp.pf.Stats().PatternHits; got != hits+1 {
		t.Fatalf("re-inserted pc did not retrain: hits %d → %d", hits, got)
	}
}

// TestPrefetcherWindowMovesBack pins the one shape the resident window must
// not shortcut: a pattern hit behind the recorded window, with no install
// in between, whose new lines were never fetched. Both must be prefetched.
func TestPrefetcherWindowMovesBack(t *testing.T) {
	pp := newPrefetchPair(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, false, 8)
	b := uint32(0x8000_1000)
	pp.access(t, 0x2000, b-3*64, 4, false, sim.Nanosecond) // another pc leaves line b-3 resident
	for _, a := range []uint32{b, b + 4, b + 8} {          // pattern hit at line b: window b+1..b+8
		pp.access(t, 0x1000, a, 4, false, sim.Nanosecond)
	}
	issued := pp.pf.Stats().Issued
	for _, a := range []uint32{b - 3*64, b - 3*64 + 4, b - 3*64 + 8} { // resident lines only
		pp.access(t, 0x1000, a, 4, false, sim.Nanosecond)
	}
	if got := pp.pf.Stats().Issued - issued; got != 2 {
		t.Fatalf("hit three lines behind the window issued %d fills, want 2 (lines b-2, b-1)", got)
	}
}

// TestPrefetcherRetargetDropsWindows pins that a prefetcher attached to
// another cache forgets its resident windows: they describe the old cache,
// whose install count the new one may happen to share.
func TestPrefetcherRetargetDropsWindows(t *testing.T) {
	cfg := CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}
	old := NewCache(cfg, DRAMLevel{testDRAM()})
	p := NewPrefetcher(8)
	old.AttachPrefetcher(p)
	b := uint32(0x8000_1000)
	for _, a := range []uint32{b, b + 4, b + 8} { // pattern hit: window b+1..b+8 after 9 installs
		old.Access(0, a, 4, false, 0x1000, "t")
	}
	c := NewCache(cfg, DRAMLevel{testDRAM()})
	for i := uint32(0); i < 8; i++ { // 8 installs; the miss below is the 9th
		c.Access(0, 0x9000_0000+i*64, 4, false, 0x2000, "t")
	}
	c.AttachPrefetcher(p)
	issued := p.Stats().Issued
	c.Access(0, b+12, 4, false, 0x1000, "t")
	if got := p.Stats().Issued - issued; got != 8 {
		t.Fatalf("pattern hit on the new cache issued %d fills, want 8", got)
	}
	for i := uint32(1); i <= 8; i++ {
		if !c.Contains(b + i*64) {
			t.Fatalf("line b+%d not prefetched into the new cache", i)
		}
	}
}
