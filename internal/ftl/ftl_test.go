package ftl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"assasin/internal/flash"
)

func smallArray() *flash.Array {
	cfg := flash.DefaultConfig()
	cfg.Channels = 4
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 8
	cfg.PagesPerBlock = 8
	cfg.PageSize = 256
	return flash.New(cfg)
}

func pageData(lpa int) []byte {
	d := make([]byte, 256)
	for i := range d {
		d[i] = byte(lpa + i)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := New(smallArray(), nil)
	for lpa := 0; lpa < 20; lpa++ {
		if _, _, err := f.Write(0, lpa, pageData(lpa)); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := 0; lpa < 20; lpa++ {
		got, _, err := f.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pageData(lpa)) {
			t.Fatalf("lpa %d data mismatch", lpa)
		}
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	f := New(smallArray(), nil)
	f.Write(0, 5, pageData(1))
	old, _ := f.Lookup(5)
	f.Write(0, 5, pageData(2))
	now, _ := f.Lookup(5)
	if old == now {
		t.Fatal("overwrite did not remap")
	}
	got, _, _ := f.Read(0, 5)
	if !bytes.Equal(got, pageData(2)) {
		t.Fatal("read returned stale data")
	}
}

func TestUnmappedRead(t *testing.T) {
	f := New(smallArray(), nil)
	if _, _, err := f.Read(0, 3); err == nil {
		t.Fatal("unmapped read succeeded")
	}
	if _, ok := f.Lookup(3); ok {
		t.Fatal("unmapped lookup ok")
	}
}

func TestStripedPolicyBalances(t *testing.T) {
	f := New(smallArray(), StripedPolicy{})
	n := 64
	lpas := make([]int, n)
	for i := 0; i < n; i++ {
		lpas[i] = i
		if err := f.Install(i, pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	counts := f.ChannelPageCounts(lpas)
	for ch, c := range counts {
		if c != n/4 {
			t.Fatalf("channel %d has %d pages, want %d", ch, c, n/4)
		}
	}
	if s := f.Skew(lpas); s != 0 {
		t.Fatalf("striped skew = %g, want 0", s)
	}
}

func TestSkewedPolicyExtremes(t *testing.T) {
	// Skew=1: everything on channel 0.
	f := New(smallArray(), SkewedPolicy{Skew: 1})
	lpas := make([]int, 40)
	for i := range lpas {
		lpas[i] = i
		if err := f.Install(i, pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	counts := f.ChannelPageCounts(lpas)
	if counts[0] != 40 {
		t.Fatalf("skew=1 counts = %v", counts)
	}
	if s := f.Skew(lpas); s < 0.99 {
		t.Fatalf("skew metric = %g, want 1", s)
	}
}

func TestSkewedPolicyIntermediate(t *testing.T) {
	arr := flash.DefaultConfig()
	arr.Channels = 8
	arr.BlocksPerChip = 64
	arr.PagesPerBlock = 16
	arr.PageSize = 64
	f := New(flash.New(arr), SkewedPolicy{Skew: 0.5})
	n := 4000
	lpas := make([]int, n)
	for i := range lpas {
		lpas[i] = i
		if err := f.Install(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Skew(lpas)
	if s < 0.4 || s > 0.6 {
		t.Fatalf("skew metric = %g, want ~0.5", s)
	}
}

func TestGarbageCollectionReclaims(t *testing.T) {
	f := New(smallArray(), nil)
	// Hammer a small LPA range so most pages invalidate quickly, forcing GC.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		lpa := rng.Intn(16)
		if _, _, err := f.Write(0, lpa, pageData(lpa)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.GCInvocations == 0 || st.Erases == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if wa := st.WriteAmplification(); wa < 1 || wa > 3 {
		t.Fatalf("write amplification %g out of sane range", wa)
	}
	// Data integrity after heavy GC.
	for lpa := 0; lpa < 16; lpa++ {
		if _, ok := f.Lookup(lpa); !ok {
			continue
		}
		got, _, err := f.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pageData(lpa)) {
			t.Fatalf("lpa %d corrupted after GC", lpa)
		}
	}
}

// TestGarbageCollectionFreesEachBlockOnce overwrites random pages of a 75%
// full drive and checks after every write that each chip's free-block count
// matches its free set, then reads every page back. A collection started
// from inside another's migration used to free the same victim twice.
func TestGarbageCollectionFreesEachBlockOnce(t *testing.T) {
	f := New(smallArray(), nil)
	rng := rand.New(rand.NewSource(4))
	pages := f.UserPages() * 3 / 4
	version := make([]int, pages)
	data := func(lpa int) []byte {
		d := pageData(lpa)
		d[0], d[1] = byte(version[lpa]), byte(version[lpa]>>8)
		return d
	}
	readBack := func(when string) {
		t.Helper()
		for lpa := range version {
			got, _, err := f.Read(0, lpa)
			if err != nil {
				t.Fatalf("%s: lpa %d: %v", when, lpa, err)
			}
			if !bytes.Equal(got, data(lpa)) {
				t.Fatalf("%s: lpa %d returned stale data", when, lpa)
			}
		}
	}
	for lpa := range version {
		if _, _, err := f.Write(0, lpa, data(lpa)); err != nil {
			t.Fatalf("fill lpa %d: %v", lpa, err)
		}
	}
	for i := 0; i < 20000; i++ {
		lpa := rng.Intn(pages)
		version[lpa]++
		if _, _, err := f.Write(0, lpa, data(lpa)); err != nil {
			t.Fatalf("write %d (lpa %d): %v", i, lpa, err)
		}
		for c := range f.free {
			for chip := range f.free[c] {
				fb := &f.free[c][chip]
				n := 0
				for b, free := range fb.isFree {
					if !free {
						continue
					}
					n++
					if st := f.block(c, chip, b); st != nil && *st != (blockState{}) {
						t.Fatalf("write %d: ch%d/chip%d block %d is free and in use", i, c, chip, b)
					}
				}
				if n != fb.n {
					t.Fatalf("write %d: ch%d/chip%d free count %d, free set holds %d", i, c, chip, fb.n, n)
				}
			}
		}
		if i%2000 == 0 {
			readBack(fmt.Sprintf("after write %d", i))
		}
	}
	readBack("at the end")
	if st := f.Stats(); st.GCInvocations == 0 || st.GCWrites == 0 {
		t.Fatalf("GC never migrated a page: %+v", st)
	}
}

// TestMappingInvariants property-checks that after random traffic the
// mapping is a partial injection: no two LPAs share a physical page.
func TestMappingInvariants(t *testing.T) {
	f := New(smallArray(), nil)
	rng := rand.New(rand.NewSource(2))
	live := map[int][]byte{}
	for i := 0; i < 1500; i++ {
		lpa := rng.Intn(32)
		d := pageData(rng.Intn(1000))
		if _, _, err := f.Write(0, lpa, d); err != nil {
			t.Fatal(err)
		}
		live[lpa] = d
	}
	seen := map[string]int{}
	for lpa := range live {
		ppa, ok := f.Lookup(lpa)
		if !ok {
			t.Fatalf("live lpa %d unmapped", lpa)
		}
		key := ppa.String()
		if prev, dup := seen[key]; dup {
			t.Fatalf("ppa %v mapped from both %d and %d", ppa, prev, lpa)
		}
		seen[key] = lpa
		got, _, err := f.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, live[lpa]) {
			t.Fatalf("lpa %d returned wrong data", lpa)
		}
	}
}

func TestWearLeveling(t *testing.T) {
	f := New(smallArray(), nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		if _, _, err := f.Write(0, rng.Intn(16), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Erase counts within each chip should be within a moderate band.
	arr := f.Array()
	cfg := arr.Config()
	for c := 0; c < cfg.Channels; c++ {
		for d := 0; d < cfg.ChipsPerChannel; d++ {
			var min, max int64 = 1 << 60, 0
			for b := 0; b < cfg.BlocksPerChip; b++ {
				e := arr.EraseCount(c, d, b)
				if e < min {
					min = e
				}
				if e > max {
					max = e
				}
			}
			if max > 0 && max-min > max/2+4 {
				t.Fatalf("wear imbalance on ch%d/chip%d: min=%d max=%d", c, d, min, max)
			}
		}
	}
}

func TestCapacityBound(t *testing.T) {
	f := New(smallArray(), nil)
	if _, _, err := f.Write(0, f.UserPages(), nil); err == nil {
		t.Fatal("write beyond capacity accepted")
	}
	if _, _, err := f.Write(0, -1, nil); err == nil {
		t.Fatal("negative lpa accepted")
	}
}

func TestInstallMatchesWriteSemantics(t *testing.T) {
	f := New(smallArray(), nil)
	if err := f.Install(7, pageData(7)); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Read(0, 7)
	if err != nil || !bytes.Equal(got, pageData(7)) {
		t.Fatal("installed page not readable")
	}
	// Install must not consume simulated channel time.
	if f.Array().ChannelBusy(0) != 0 && f.Array().ChannelBusy(1) != 0 &&
		f.Array().ChannelBusy(2) != 0 && f.Array().ChannelBusy(3) != 0 {
		t.Fatal("install consumed bus time")
	}
}

func TestFillDriveSequential(t *testing.T) {
	f := New(smallArray(), nil)
	n := f.UserPages()
	for lpa := 0; lpa < n; lpa++ {
		if err := f.Install(lpa, nil); err != nil {
			t.Fatalf("install %d/%d: %v", lpa, n, err)
		}
	}
	// Everything mapped.
	for lpa := 0; lpa < n; lpa++ {
		if _, ok := f.Lookup(lpa); !ok {
			t.Fatalf("lpa %d unmapped after fill", lpa)
		}
	}
}

func TestSkewMetricFormula(t *testing.T) {
	f := New(smallArray(), nil)
	_ = f
	cases := []struct {
		counts []int
		want   float64
	}{
		{[]int{10, 10, 10, 10}, 0},
		{[]int{40, 0, 0, 0}, 1},
		{[]int{25, 5, 5, 5}, (4.0 / 3.0) * (25.0/40.0 - 0.25)},
	}
	for _, c := range cases {
		got := skewOf(c.counts)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("skew(%v) = %g, want %g", c.counts, got, c.want)
		}
	}
}

// skewOf mirrors FTL.Skew for direct formula testing.
func skewOf(counts []int) float64 {
	n := float64(len(counts))
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	return (n / (n - 1)) * (float64(max)/float64(total) - 1/n)
}

func ExampleFTL_Skew() {
	arr := flash.DefaultConfig()
	arr.Channels = 4
	arr.BlocksPerChip = 8
	arr.PagesPerBlock = 8
	arr.PageSize = 64
	f := New(flash.New(arr), SkewedPolicy{Skew: 1})
	lpas := []int{0, 1, 2, 3}
	for _, lpa := range lpas {
		f.Install(lpa, nil)
	}
	fmt.Printf("skew=%.1f\n", f.Skew(lpas))
	// Output: skew=1.0
}

// TestCollectWhileBlockStatesGrow runs a collection whose migration opens a
// block never opened before, so the chip's block states grow (and, at
// eight entries, move) in the middle of the collection. The victim must
// still end up free with empty state, and every page must read back.
func TestCollectWhileBlockStatesGrow(t *testing.T) {
	cfg := flash.DefaultConfig()
	cfg.Channels, cfg.ChipsPerChannel = 1, 1
	// Blocks 0..7 fill first; opening block 7 leaves 2 free and starts a
	// collection whose fully valid victim overflows block 7 into block 8.
	cfg.BlocksPerChip, cfg.PagesPerBlock, cfg.PageSize = 10, 4, 256
	f := New(flash.New(cfg), nil)
	for lpa := 0; lpa < f.UserPages(); lpa++ {
		if _, _, err := f.Write(0, lpa, pageData(lpa)); err != nil {
			t.Fatalf("write lpa %d: %v", lpa, err)
		}
		fb := &f.free[0][0]
		for b, free := range fb.isFree {
			if st := f.block(0, 0, b); free && st != nil && *st != (blockState{}) {
				t.Fatalf("after lpa %d: block %d is free with state %+v", lpa, b, *st)
			}
		}
	}
	if f.Stats().GCWrites == 0 {
		t.Fatal("no collection migrated a page")
	}
	for lpa := 0; lpa < f.UserPages(); lpa++ {
		got, _, err := f.Read(0, lpa)
		if err != nil || !bytes.Equal(got, pageData(lpa)) {
			t.Fatalf("lpa %d reads back wrong (%v)", lpa, err)
		}
	}
}
