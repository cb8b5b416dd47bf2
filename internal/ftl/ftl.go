// Package ftl implements the flash translation layer: page-level
// logical-to-physical mapping, write allocation with pluggable placement
// policies, garbage collection, and erase-count-aware (wear-leveling) block
// selection.
//
// A key architectural point of the paper is that ASSASIN's crossbar leaves
// the FTL completely independent — no computational-storage-aware placement
// is needed. This FTL is therefore a conventional one: the default policy
// stripes logical pages across channels for storage performance, exactly
// what MQSim's FTL does in the paper's scalability experiment (Fig. 18).
// A skewed policy exists to *construct* the uneven layouts of the Fig. 19
// sensitivity study.
package ftl

import (
	"fmt"

	"assasin/internal/flash"
	"assasin/internal/sim"
	"assasin/internal/telemetry"
)

// Policy chooses the target channel for a logical page write.
type Policy interface {
	// Channel returns the channel for lpa given n channels.
	Channel(lpa, n int) int
	// Name labels the policy.
	Name() string
}

// StripedPolicy round-robins logical pages across channels — the
// conventional bandwidth-maximizing layout.
type StripedPolicy struct{}

// Channel implements Policy.
func (StripedPolicy) Channel(lpa, n int) int { return lpa % n }

// Name implements Policy.
func (StripedPolicy) Name() string { return "striped" }

// SkewedPolicy concentrates a fraction Skew of logical pages on channel 0
// and stripes the remainder, giving channel 0 the share
// Skew + (1-Skew)/n — the layout-skew knob of the paper's Fig. 19
// (Skew 0 = balanced, 1 = everything on one channel).
type SkewedPolicy struct {
	Skew float64
}

// Channel implements Policy. The skewed subset is selected by a hash so hot
// pages interleave with striped ones along the logical address space.
func (p SkewedPolicy) Channel(lpa, n int) int {
	// Fibonacci hash to [0,1).
	h := uint32(lpa) * 2654435761
	if float64(h)/float64(1<<32) < p.Skew {
		return 0
	}
	return lpa % n
}

// Name implements Policy.
func (p SkewedPolicy) Name() string { return fmt.Sprintf("skewed(%.2f)", p.Skew) }

// blockState is one erase block's FTL accounting. The zero value is a
// block that is free or was never opened.
type blockState struct {
	valid  int  // valid pages
	open   bool // currently receiving writes
	filled int  // pages programmed (write pointer)
}

// pageChunk is the lazy-allocation unit of the L2P/P2L tables. Devices are
// sized in the hundreds of thousands of pages while most runs map a few
// thousand, so flat pre-initialized tables dominated SSD construction cost
// (and GC pressure) in whole-experiment sweeps; chunks materialize only for
// touched regions of the address spaces.
const pageChunk = 1 << 12

// freeBlocks is the free set of one (channel, chip) pair: a dense
// bool-per-block slice with a count, cheaper to build and scan than the
// map it replaces (chips have only a few hundred blocks).
type freeBlocks struct {
	isFree []bool
	n      int
}

// FTL is the flash translation layer over one flash.Array.
type FTL struct {
	arr    *flash.Array
	cfg    flash.Config
	policy Policy

	total int           // device pages (logical and physical spaces)
	l2p   [][]flash.PPA // chunked logical -> physical; nil chunk or Page == -1 means unmapped
	p2l   [][]int       // chunked physical page index -> lpa; nil chunk or -1 invalid

	// blocks holds the per-block state of each (channel, chip), indexed by
	// block and grown to the highest block opened so far: wear leveling
	// opens low block numbers first, so a lightly written drive keeps a
	// few entries per chip. Growing may move a chip's states, so callers
	// look a block up again after anything that can open a block.
	blocks [][][]blockState
	// free blocks per (channel, chip)
	free [][]freeBlocks
	// openBlock per (channel, chip): the block receiving writes
	open [][]int

	// GCThreshold triggers collection when a (channel, chip) pair's free
	// block count drops to it.
	GCThreshold int

	// Tel, when non-nil, counts L2P translations; the cumulative Stats
	// (host/GC writes, erases, invocations) are published at snapshot time.
	Tel *Tel

	stats Stats
}

// Tel is the FTL telemetry bundle.
type Tel struct {
	Lookups *telemetry.Counter // successful L2P translations
}

// NewTel registers the FTL metrics on sink (nil sink -> nil Tel).
func NewTel(sink *telemetry.Sink) *Tel {
	if sink == nil {
		return nil
	}
	return &Tel{Lookups: sink.Counter("ftl", "lookups")}
}

// Stats counts FTL activity.
type Stats struct {
	HostWrites    int64 // pages written by the host/firmware
	GCWrites      int64 // pages migrated by garbage collection
	Erases        int64
	GCInvocations int64
}

// WriteAmplification returns (host+gc)/host writes.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 1
	}
	return float64(s.HostWrites+s.GCWrites) / float64(s.HostWrites)
}

// New returns an FTL over arr with the given placement policy.
func New(arr *flash.Array, policy Policy) *FTL {
	cfg := arr.Config()
	if policy == nil {
		policy = StripedPolicy{}
	}
	total := arr.TotalPages()
	chunks := (total + pageChunk - 1) / pageChunk
	f := &FTL{
		arr:         arr,
		cfg:         cfg,
		policy:      policy,
		total:       total,
		l2p:         make([][]flash.PPA, chunks),
		p2l:         make([][]int, chunks),
		GCThreshold: 2,
	}
	f.free = make([][]freeBlocks, cfg.Channels)
	f.open = make([][]int, cfg.Channels)
	f.blocks = make([][][]blockState, cfg.Channels)
	for c := 0; c < cfg.Channels; c++ {
		f.free[c] = make([]freeBlocks, cfg.ChipsPerChannel)
		f.blocks[c] = make([][]blockState, cfg.ChipsPerChannel)
		f.open[c] = make([]int, cfg.ChipsPerChannel)
		for d := 0; d < cfg.ChipsPerChannel; d++ {
			fb := &f.free[c][d]
			fb.isFree = make([]bool, cfg.BlocksPerChip)
			for b := range fb.isFree {
				fb.isFree[b] = true
			}
			fb.n = cfg.BlocksPerChip
			f.open[c][d] = -1
		}
	}
	return f
}

// l2pAt returns the mapping of lpa (Page < 0 when unmapped).
func (f *FTL) l2pAt(lpa int) flash.PPA {
	if c := f.l2p[lpa/pageChunk]; c != nil {
		return c[lpa%pageChunk]
	}
	return flash.PPA{Page: -1}
}

// l2pSet stores the mapping of lpa, materializing its chunk.
func (f *FTL) l2pSet(lpa int, ppa flash.PPA) {
	ci := lpa / pageChunk
	c := f.l2p[ci]
	if c == nil {
		c = make([]flash.PPA, pageChunk)
		for i := range c {
			c[i].Page = -1
		}
		f.l2p[ci] = c
	}
	c[lpa%pageChunk] = ppa
}

// p2lAt returns the lpa mapped to physical page index idx (-1 when none).
func (f *FTL) p2lAt(idx int) int {
	if c := f.p2l[idx/pageChunk]; c != nil {
		return c[idx%pageChunk]
	}
	return -1
}

// p2lSet stores the reverse mapping of physical page index idx.
func (f *FTL) p2lSet(idx, lpa int) {
	ci := idx / pageChunk
	c := f.p2l[ci]
	if c == nil {
		c = make([]int, pageChunk)
		for i := range c {
			c[i] = -1
		}
		f.p2l[ci] = c
	}
	c[idx%pageChunk] = lpa
}

// Array returns the underlying flash array.
func (f *FTL) Array() *flash.Array { return f.arr }

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// UserPages returns the logical capacity in pages (with ~12.5%
// over-provisioning reserved for GC headroom).
func (f *FTL) UserPages() int { return f.arr.TotalPages() * 7 / 8 }

// Lookup returns the physical address of lpa.
func (f *FTL) Lookup(lpa int) (flash.PPA, bool) {
	if lpa < 0 || lpa >= f.total {
		return flash.PPA{}, false
	}
	if ppa := f.l2pAt(lpa); ppa.Page >= 0 {
		if f.Tel != nil {
			f.Tel.Lookups.Inc()
		}
		return ppa, true
	}
	return flash.PPA{}, false
}

func (f *FTL) ppaIndex(p flash.PPA) int {
	perChip := f.cfg.BlocksPerChip * f.cfg.PagesPerBlock
	perChannel := perChip * f.cfg.ChipsPerChannel
	return p.Channel*perChannel + p.Chip*perChip + p.Block*f.cfg.PagesPerBlock + p.Page
}

// block returns the state of block b on (channel, chip), or nil when the
// block has never been opened (so it holds no data).
func (f *FTL) block(channel, chip, b int) *blockState {
	if bs := f.blocks[channel][chip]; b < len(bs) {
		return &bs[b]
	}
	return nil
}

// pickFreeBlock selects the free block with the lowest erase count on
// (channel, chip) — the wear-leveling decision.
func (f *FTL) pickFreeBlock(channel, chip int) (int, error) {
	best := -1
	var bestWear int64
	fb := &f.free[channel][chip]
	for b, free := range fb.isFree {
		if !free {
			continue
		}
		w := f.arr.EraseCount(channel, chip, b)
		if best == -1 || w < bestWear {
			best = b
			bestWear = w
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("ftl: no free block on ch%d/chip%d", channel, chip)
	}
	fb.isFree[best] = false
	fb.n--
	return best, nil
}

// nextSlot returns the PPA to program next on (channel, chip), opening a new
// block if needed.
func (f *FTL) nextSlot(channel, chip int) (flash.PPA, error) {
	ob := f.open[channel][chip]
	var st *blockState
	if ob >= 0 {
		st = f.block(channel, chip, ob)
		if st.filled >= f.cfg.PagesPerBlock {
			st.open = false
			ob = -1
		}
	}
	if ob < 0 {
		b, err := f.pickFreeBlock(channel, chip)
		if err != nil {
			return flash.PPA{}, err
		}
		ob = b
		f.open[channel][chip] = b
		if bs := f.blocks[channel][chip]; b >= len(bs) {
			f.blocks[channel][chip] = append(bs, make([]blockState, b+1-len(bs))...)
		}
		st = f.block(channel, chip, b)
		*st = blockState{open: true}
	}
	return flash.PPA{Channel: channel, Chip: chip, Block: ob, Page: st.filled}, nil
}

// chipForWrite spreads logical pages across a channel's chips by hash.
// A plain (lpa/channels)%chips round-robin leaves equal-sized sequential
// readers marching over the same chip row in lockstep, convoying on the
// 25 µs array-read time; hashing decorrelates concurrent streams, as
// arrival-order die striping does in a real FTL.
func (f *FTL) chipForWrite(channel, lpa int) int {
	h := uint32(lpa/f.cfg.Channels) * 2654435761
	return int(h>>16) % f.cfg.ChipsPerChannel
}

// Write programs a logical page at time at. It returns the bus-transfer
// completion (when the source buffer is reusable) and the program completion
// (when the data is durable). Old mappings are invalidated; GC runs when the
// target (channel, chip) runs low on free blocks.
func (f *FTL) Write(at sim.Time, lpa int, data []byte) (busDone, progDone sim.Time, err error) {
	return f.write(at, lpa, data, false)
}

func (f *FTL) write(at sim.Time, lpa int, data []byte, gc bool) (busDone, progDone sim.Time, err error) {
	if lpa < 0 || lpa >= f.UserPages() {
		return 0, 0, fmt.Errorf("ftl: lpa %d out of capacity %d", lpa, f.UserPages())
	}
	channel := f.policy.Channel(lpa, f.cfg.Channels)
	chip := f.chipForWrite(channel, lpa)
	ppa, err := f.nextSlot(channel, chip)
	if err != nil {
		return 0, 0, err
	}
	busDone, progDone, err = f.arr.Write(at, ppa, data)
	if err != nil {
		return 0, 0, err
	}
	f.commitMapping(lpa, ppa)
	if gc {
		f.stats.GCWrites++
	} else {
		f.stats.HostWrites++
	}
	// GC's own migration writes never start another collection: a nested
	// one would pick the victim still being migrated and free it twice.
	if !gc && f.free[channel][chip].n <= f.GCThreshold {
		if err := f.collect(at, channel, chip); err != nil {
			return 0, 0, err
		}
	}
	return busDone, progDone, nil
}

// Install maps and stores a logical page without consuming simulated time
// (dataset setup).
func (f *FTL) Install(lpa int, data []byte) error {
	if lpa < 0 || lpa >= f.UserPages() {
		return fmt.Errorf("ftl: lpa %d out of capacity %d", lpa, f.UserPages())
	}
	channel := f.policy.Channel(lpa, f.cfg.Channels)
	chip := f.chipForWrite(channel, lpa)
	ppa, err := f.nextSlot(channel, chip)
	if err != nil {
		return err
	}
	if err := f.arr.InstallPage(ppa, data); err != nil {
		return err
	}
	f.commitMapping(lpa, ppa)
	f.stats.HostWrites++
	return nil
}

func (f *FTL) commitMapping(lpa int, ppa flash.PPA) {
	// Invalidate the old physical page.
	if old := f.l2pAt(lpa); old.Page >= 0 {
		f.block(old.Channel, old.Chip, old.Block).valid--
		f.p2lSet(f.ppaIndex(old), -1)
	}
	f.l2pSet(lpa, ppa)
	f.p2lSet(f.ppaIndex(ppa), lpa)
	st := f.block(ppa.Channel, ppa.Chip, ppa.Block)
	st.valid++
	st.filled++
}

// Read returns the contents and completion time of a logical page read.
func (f *FTL) Read(at sim.Time, lpa int) ([]byte, sim.Time, error) {
	ppa, ok := f.Lookup(lpa)
	if !ok {
		return nil, 0, fmt.Errorf("ftl: read of unmapped lpa %d", lpa)
	}
	return f.arr.Read(at, ppa)
}

// collect performs greedy garbage collection on (channel, chip): it picks
// the closed block with the fewest valid pages, migrates them, and erases.
func (f *FTL) collect(at sim.Time, channel, chip int) error {
	f.stats.GCInvocations++
	victim := -1
	var victimState *blockState
	var victimWear int64
	blocks := f.blocks[channel][chip]
	for b := range blocks {
		st := &blocks[b]
		if st.open || st.filled < f.cfg.PagesPerBlock {
			continue
		}
		wear := f.arr.EraseCount(channel, chip, b)
		// Greedy min-valid victim; equal-valid ties prefer the least-worn
		// block so erase cycles rotate across the whole chip.
		if victimState == nil || st.valid < victimState.valid ||
			(st.valid == victimState.valid && wear < victimWear) {
			victim = b
			victimState = st
			victimWear = wear
		}
	}
	if victim < 0 {
		return nil // nothing collectable yet
	}
	// Migrate valid pages.
	base := f.ppaIndex(flash.PPA{Channel: channel, Chip: chip, Block: victim})
	for pg := 0; pg < f.cfg.PagesPerBlock; pg++ {
		lpa := f.p2lAt(base + pg)
		if lpa < 0 {
			continue
		}
		data, _, err := f.arr.Read(at, flash.PPA{Channel: channel, Chip: chip, Block: victim, Page: pg})
		if err != nil {
			return fmt.Errorf("ftl: gc read: %w", err)
		}
		if _, _, err := f.write(at, lpa, data, true); err != nil {
			return fmt.Errorf("ftl: gc migrate: %w", err)
		}
	}
	if _, err := f.arr.Erase(at, channel, chip, victim); err != nil {
		return fmt.Errorf("ftl: gc erase: %w", err)
	}
	f.stats.Erases++
	// The migration writes above may have grown this chip's states.
	*f.block(channel, chip, victim) = blockState{}
	fb := &f.free[channel][chip]
	fb.isFree[victim] = true
	fb.n++
	return nil
}

// FreeBlocks returns the free-block count on (channel, chip).
func (f *FTL) FreeBlocks(channel, chip int) int { return f.free[channel][chip].n }

// ChannelPageCounts returns, for a set of logical pages, how many map to
// each channel — the D_i distribution of the skew study.
func (f *FTL) ChannelPageCounts(lpas []int) []int {
	counts := make([]int, f.cfg.Channels)
	for _, lpa := range lpas {
		if ppa, ok := f.Lookup(lpa); ok {
			counts[ppa.Channel]++
		}
	}
	return counts
}

// Skew computes the paper's layout-skew metric for a set of logical pages:
// Skew = (n/(n-1)) · (max_i(D_i)/ΣD_i − 1/n), which is 0 for a perfectly
// even layout and 1 when all data sits on one channel.
func (f *FTL) Skew(lpas []int) float64 {
	counts := f.ChannelPageCounts(lpas)
	n := float64(len(counts))
	total := 0
	max := 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 || n <= 1 {
		return 0
	}
	return (n / (n - 1)) * (float64(max)/float64(total) - 1/n)
}
