package memhier

import "assasin/internal/sim"

// Prefetcher is a delta-correlating prediction table (DCPT) style
// prefetcher, standing in for the best-performing Gem5 prefetcher in the
// paper's Prefetch configuration. Each load PC gets a table entry tracking
// its last address and delta; when the same delta repeats the prefetcher
// issues fills for the next degree cache lines along that direction.
//
// For the streaming access patterns of computational-storage kernels this
// captures DCPT's essential behaviour: near-perfect latency hiding of
// sequential flash-page walks, with no reduction in DRAM bandwidth demand —
// which is exactly why the paper finds Prefetch helps latency but cannot
// break the memory wall.
type Prefetcher struct {
	// degree is how many lines ahead to prefetch once a pattern locks. It
	// is fixed: a resident window spans exactly degree lines.
	degree int32
	target *Cache
	// ring holds the table entries in insertion order: once full, next is
	// the oldest entry and the one replaced by the next new PC (FIFO).
	ring [dcptTableSize]dcptEntry
	n    int
	next int
	// index maps a PC to its ring entry by linear probing.
	index [dcptIndexSize]dcptSlot
	stats PrefetchStats
}

const (
	// dcptTableSize bounds the number of tracked PCs.
	dcptTableSize = 64
	// The PC index has 1<<dcptIndexBits slots, at least twice the table
	// size, so it stays at most half full and probe runs stay short.
	dcptIndexBits = 7
	dcptIndexSize = 1 << dcptIndexBits
)

// PrefetchStats counts predictor behaviour.
type PrefetchStats struct {
	Observations int64
	PatternHits  int64
	Issued       int64
}

type dcptEntry struct {
	pc        uint32
	lastAddr  uint32
	lastDelta int32
	// The resident window: after a pattern hit, the degree lines winBase +
	// winDir*i*LineSize (i = 1..degree) were all in the target cache, and
	// stay there until the cache's next install (its installs counter
	// passes winInstalls). winDir 0 means no window is recorded.
	winBase     uint32
	winDir      int32
	winInstalls uint64
}

// dcptSlot is one PC-index slot; ref is the ring position plus one, and 0
// marks an empty slot.
type dcptSlot struct {
	pc  uint32
	ref uint8
}

// NewPrefetcher returns a DCPT-style prefetcher with the given degree.
func NewPrefetcher(degree int) *Prefetcher {
	if degree <= 0 {
		degree = 4
	}
	return &Prefetcher{degree: int32(degree)}
}

// Stats returns a copy of the counters.
func (p *Prefetcher) Stats() PrefetchStats { return p.stats }

// home is pc's preferred index slot (Fibonacci hashing).
func home(pc uint32) int { return int((pc * 2654435761) >> (32 - dcptIndexBits)) }

// find returns the index slot holding pc, or the empty slot ending its
// probe run.
func (p *Prefetcher) find(pc uint32) int {
	i := home(pc)
	for p.index[i].ref != 0 && p.index[i].pc != pc {
		i = (i + 1) & (dcptIndexSize - 1)
	}
	return i
}

// unindex removes pc from the index, shifting later members of its probe
// run back so that every remaining PC stays reachable from its home slot.
func (p *Prefetcher) unindex(pc uint32) {
	hole := p.find(pc)
	for j := (hole + 1) & (dcptIndexSize - 1); p.index[j].ref != 0; j = (j + 1) & (dcptIndexSize - 1) {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (hole, j].
		if (j-home(p.index[j].pc))&(dcptIndexSize-1) >= (j-hole)&(dcptIndexSize-1) {
			p.index[hole] = p.index[j]
			hole = j
		}
	}
	p.index[hole] = dcptSlot{}
}

// Observe records a demand access by pc at addr and issues prefetches when a
// delta pattern repeats.
func (p *Prefetcher) Observe(at sim.Time, pc, addr uint32, client string) {
	if p.target == nil {
		return
	}
	p.stats.Observations++
	slot := p.find(pc)
	if p.index[slot].ref == 0 {
		pos := p.next
		if p.n == dcptTableSize {
			p.unindex(p.ring[pos].pc)
			slot = p.find(pc) // the shift may have moved pc's empty slot
		} else {
			p.n++
		}
		p.next = (pos + 1) % dcptTableSize
		p.ring[pos] = dcptEntry{pc: pc, lastAddr: addr}
		p.index[slot] = dcptSlot{pc: pc, ref: uint8(pos + 1)}
		return
	}
	e := &p.ring[p.index[slot].ref-1]
	delta := int32(addr - e.lastAddr)
	if delta != 0 && delta == e.lastDelta {
		p.stats.PatternHits++
		p.prefetchAhead(at, e, addr, delta, client)
	}
	if delta != 0 {
		e.lastDelta = delta
		e.lastAddr = addr
	}
}

// prefetchAhead issues the fills of one pattern hit: the degree lines past
// addr's line in the direction of delta, in order. Prefetching a resident
// line is a no-op, so the lines of e's resident window are skipped while
// the window is still valid: a line leaves the cache only when an install
// replaces it, and none has happened since the window was recorded.
func (p *Prefetcher) prefetchAhead(at sim.Time, e *dcptEntry, addr uint32, delta int32, client string) {
	c := p.target
	lineSize := int32(c.cfg.LineSize)
	dir := int32(1)
	if delta < 0 {
		dir = -1
	}
	base := c.lineAddr(addr)
	first := int32(1)
	if e.winDir == dir && e.winInstalls == c.installs {
		// Line i of this hit is window line i+k, where k is how many lines
		// base moved forward, so lines 1..degree-k are resident. Only on a
		// forward move do they come first in probe order, before any fill
		// of this hit can evict one.
		if k := dir * int32(base-e.winBase) / lineSize; k >= 0 && k < p.degree {
			first = p.degree - k + 1
		}
	}
	before := c.installs
	for i := first; i <= p.degree; i++ {
		la := base + uint32(dir*lineSize*i)
		if c.Prefetch(at, la, client) {
			p.stats.Issued++
		}
	}
	// The whole window is resident now unless one of its fills evicted an
	// earlier line of it, which needs two window lines in one set.
	if c.installs == before || int(p.degree) <= len(c.sets) {
		e.winBase, e.winDir, e.winInstalls = base, dir, c.installs
	} else {
		e.winDir = 0
	}
}
