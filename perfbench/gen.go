package main

import (
	"encoding/binary"
	"math"
	"math/rand"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
)

// Run sizes. Full scale is what the measured runs use; small scale (1/16 of
// every input and command count) is what the digest tests and the per-run
// canary use.
const (
	statBytes   = 4 << 20   // Stat: one column of 32-bit integers
	filterBytes = 4 << 20   // Filter: 32-byte lineitem tuples
	raidBytes   = 256 << 10 // RAID6: per data stream, K=4 streams
	dedupBytes  = 2 << 20   // Dedup: 512-byte chunks
	aesBytes    = 32 << 10  // AES: ~1000 guest instructions per 16-byte block
	scanBytes   = 1 << 20   // io-serve: the concurrent batch Scan offload

	ioCommands   = 300_000 // io-serve: NVMe commands per pass
	ioRatePerSec = 20_000  // io-serve: mean Poisson arrival rate, simulated
	ioKeys       = 1024    // io-serve: distinct 1-page keys
	ioZipfS      = 1.2
	ioZipfV      = 8
	ioWriteFrac  = 0.10

	smallDiv = 16
)

// job is one offload of the closed-loop kernel set: the kernel, its input
// datasets, and the outputs the reference implementation expects.
type job struct {
	kernel     kernels.Kernel
	inputs     [][]byte
	recordSize int
	outKind    firmware.OutKind
	// want[task][slot] are the expected collected outputs of each task
	// (computed from the inputs at generation time, outside every timing).
	want [][][]byte
	// wantSum is Stat's expected cross-core 32-bit sum.
	wantSum uint32
}

// filterKernel is the motivating example's predicate pair: a one-year
// shipdate window and quantity < 24.
func filterKernel() kernels.Filter {
	return kernels.Filter{
		TupleSize: 32,
		Preds: []kernels.FieldPred{
			{Offset: 16, Lo: 19940101, Hi: 19941231},
			{Offset: 0, Lo: 0, Hi: 23},
		},
	}
}

// randBytes returns n seeded random bytes (n rounded down to 64).
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n&^63)
	rng.Read(b)
	return b
}

// lineitems returns 32-byte tuples: quantity@0, price@4, discount@8, tax@12,
// shipdate@16 (YYYYMMDD), row id@20.
func lineitems(rng *rand.Rand, n int) []byte {
	rows := n / 32
	b := make([]byte, rows*32)
	for i := 0; i < rows; i++ {
		t := b[i*32:]
		binary.LittleEndian.PutUint32(t[0:], uint32(1+rng.Intn(50)))
		binary.LittleEndian.PutUint32(t[4:], uint32(90000+rng.Intn(100000)))
		binary.LittleEndian.PutUint32(t[8:], uint32(rng.Intn(11)*100))
		binary.LittleEndian.PutUint32(t[12:], uint32(rng.Intn(9)*100))
		y, m, d := 1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28)
		binary.LittleEndian.PutUint32(t[16:], uint32(y*10000+m*100+d))
		binary.LittleEndian.PutUint32(t[20:], uint32(i))
	}
	return b
}

// dedupChunks returns 512-byte chunks drawn from 32 distinct ones, so about
// every chunk after the first few is a duplicate.
func dedupChunks(rng *rand.Rand, n int) []byte {
	uniques := make([][]byte, 32)
	for i := range uniques {
		uniques[i] = randBytes(rng, 512)
	}
	out := make([]byte, 0, n)
	for len(out)+512 <= n {
		out = append(out, uniques[rng.Intn(len(uniques))]...)
	}
	return out
}

// genJobs builds the offload kernel set's inputs from seed. div scales every
// input down (1 = full scale).
func genJobs(seed int64, div int) []*job {
	rng := rand.New(rand.NewSource(seed))
	key := randBytes(rng, 64)[:16]
	raid := make([][]byte, 4)
	for i := range raid {
		raid[i] = randBytes(rng, raidBytes/div)
	}
	return []*job{
		{kernel: kernels.Stat{}, inputs: [][]byte{randBytes(rng, statBytes/div)}, recordSize: 4, outKind: firmware.OutDiscard},
		{kernel: filterKernel(), inputs: [][]byte{lineitems(rng, filterBytes/div)}, recordSize: 32, outKind: firmware.OutToHost},
		{kernel: kernels.RAID6{K: 4}, inputs: raid, recordSize: 4, outKind: firmware.OutToFlash},
		{kernel: kernels.Dedup{}, inputs: [][]byte{dedupChunks(rng, dedupBytes/div)}, recordSize: 512, outKind: firmware.OutToHost},
		{kernel: kernels.AES{Key: key}, inputs: [][]byte{randBytes(rng, aesBytes/div)}, recordSize: 16, outKind: firmware.OutToFlash},
	}
}

// ioSchedule is io-serve's whole arrival process, drawn before any timing so
// the timed phase only replays it.
type ioSchedule struct {
	gapPs  []int64 // inter-arrival gap before each command
	key    []int32 // key index (Zipf)
	write  []bool
	tenant []uint8 // index into ioTenants
	keys   []byte  // the installed key space, ioKeys pages
	page   []byte  // the shared write payload
	scan   []byte  // the concurrent Scan offload's input
}

// ioTenants are the two I/O tenants; the Scan offload runs as ioBatch.
var ioTenants = []string{"gold", "silver"}

const ioBatch = "batch"

// genSchedule draws n Poisson arrivals with Zipf keys and a write mix.
func genSchedule(seed int64, div, pageSize int) *ioSchedule {
	rng := rand.New(rand.NewSource(seed))
	n := ioCommands / div
	s := &ioSchedule{
		gapPs:  make([]int64, n),
		key:    make([]int32, n),
		write:  make([]bool, n),
		tenant: make([]uint8, n),
		keys:   randBytes(rng, ioKeys*pageSize),
		page:   randBytes(rng, pageSize),
		scan:   randBytes(rng, scanBytes/div),
	}
	zipf := rand.NewZipf(rng, ioZipfS, ioZipfV, ioKeys-1)
	for i := 0; i < n; i++ {
		gap := -math.Log(1-rng.Float64()) * 1e12 / ioRatePerSec
		s.gapPs[i] = max(int64(gap), 1)
		s.key[i] = int32(zipf.Uint64())
		s.write[i] = rng.Float64() < ioWriteFrac
		s.tenant[i] = uint8(rng.Intn(len(ioTenants)))
	}
	return s
}
