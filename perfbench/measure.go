package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu      time.Duration // user + system, all threads
	allocB   uint64
	allocN   uint64
	gcCycles uint64
	gcCPU    float64 // seconds the runtime attributes to GC
}

var usageNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// cpuTime returns the process's user + system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageNames))
	for i, n := range usageNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return usage{
		cpu:      cpuTime(),
		allocB:   s[0].Value.Uint64(),
		allocN:   s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

// peakRSS returns the process's peak resident set in bytes, less the
// calibration tables, which are resident from start-up on.
func peakRSS() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss<<10 - calTableBytes // Linux reports KiB
}

// heapSampler records the peak of live heap objects while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// calRef is the calibration's nominal time. The host-time metrics are
// scaled to a host on which calibrate takes calRef.
const calRef = 25 * time.Millisecond

// calSteps is the work of one calibration: that many interpreter steps over
// each of the two tables.
const calSteps = 3_000_000

// calTables are the calibration interpreter's data, 2 MiB and 16 MiB:
// one that fits in the core's L2 and one that does not. They are allocated
// and filled at start-up and stay resident.
var calTables = [2][]uint32{calTable(1 << 19), calTable(1 << 22)}

// calTableBytes is the resident size of calTables.
const calTableBytes = (1<<19 + 1<<22) * 4

func calTable(words int) []uint32 {
	t := make([]uint32, words)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}

// calSink keeps the calibration's results live.
var calSink uint32

// calibrate runs fixed work and returns how long it took: a measure of how
// fast the shared host runs at the moment, which drifts by a factor of two
// within minutes. The work is the benchmark's own, so a change to the
// simulator does not move it: a seven-opcode bytecode interpreter, the kind
// of dispatch loop the simulator spends its time in, run over both tables.
// Of the kinds of fixed work tried (integer chains, pointer chases, this
// interpreter over 256 KiB, 2 MiB or 16 MiB), this one's time tracked the
// simulator's pass times most closely on all three workloads.
func calibrate() time.Duration {
	start := time.Now()
	for _, t := range calTables {
		calSink += interpret(t, calSteps)
	}
	return time.Since(start)
}

// interpret runs steps steps of a fixed loop of loads, stores, arithmetic
// and one data-dependent branch over t, whose length is a power of two.
func interpret(t []uint32, steps int) uint32 {
	var r [6]uint32
	code := [...]uint8{0, 1, 2, 3, 4, 5, 6}
	mask := uint32(len(t) - 1)
	for i, pc := 0, 0; i < steps; i, pc = i+1, pc+1 {
		switch code[pc] {
		case 0:
			r[1] = t[r[0]&mask]
		case 1:
			r[2] += r[1]
		case 2:
			r[3] ^= r[1] << 3
		case 3:
			if r[1]&1 == 0 {
				r[4]++
			} else {
				r[5] += r[3]
			}
		case 4:
			t[(r[0]*7)&mask] = r[2] ^ r[5]
		case 5:
			r[0] += 1 + r[3]&15
		case 6:
			pc = -1
		}
	}
	return r[2] + r[4]
}

// sample is the measurement of one pass.
type sample struct {
	setup, wall, cpu time.Duration
	calib            time.Duration // mean of the pass's calibrations
	// wallScaled and cpuScaled are wall and cpu in seconds, each segment
	// of the timed phase scaled by the calibrations on either side of it.
	wallScaled, cpuScaled float64
	allocB, allocN        uint64
	gcCycles              uint64
	gcCPU                 float64
	heapPeak              uint64
	first, last           int // the pass's span ids
	out                   *passOut
}

// runPass sets up a fresh drive, times its timed phase, and checks the
// results. Set-up and timed phase each start after a forced GC, so garbage
// from earlier passes is not collected on their clock. The timed phase is
// bracketed by calibrations and, unless profiled, the pass pauses between
// its parts for another one, which is not timed: each segment of the
// timed phase is scaled by the calibrations on either side of it, so that
// drift of the host's speed within a long pass is followed too. With
// layerNs non-nil the timed phase is CPU-profiled, its samples are added to
// layerNs by host layer, and the live-heap peak is recorded.
func runPass(in *inputs, o options, sp *spans, parent int, layerNs map[string]int64) (*sample, error) {
	passID := sp.begin("pass", parent)
	defer sp.end(passID)
	smp := &sample{first: passID}
	runtime.GC()
	p := newPass(in, o)
	setupID := sp.begin("setup", passID)
	err := p.setup(sp, setupID)
	smp.setup = sp.end(setupID)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	calPrev := calibrate()
	calSum, calN := calPrev, 1
	addSegment := func(wall, cpu time.Duration) {
		next := calibrate()
		c := (calPrev + next) / 2
		smp.wall += wall
		smp.cpu += cpu
		smp.wallScaled += scale(wall, c)
		smp.cpuScaled += scale(cpu, c)
		calPrev = next
		calSum += next
		calN++
	}

	var buf bytes.Buffer
	var heap *heapSampler
	if layerNs != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		heap = startHeapSampler()
	}
	u0 := readUsage()
	timedID := sp.begin("timed", passID)
	segStart, segCPU := time.Now(), u0.cpu
	var pause func()
	if layerNs == nil {
		pause = func() {
			addSegment(time.Since(segStart), cpuTime()-segCPU)
			segStart, segCPU = time.Now(), cpuTime()
		}
	}
	p.run(sp, timedID, pause)
	wall := time.Since(segStart)
	sp.end(timedID)
	u1 := readUsage()
	if layerNs != nil {
		smp.heapPeak = heap.finish()
		pprof.StopCPUProfile()
		if err := foldProfile(buf.Bytes(), layerNs); err != nil {
			return nil, err
		}
	}
	addSegment(wall, u1.cpu-segCPU)
	smp.calib = calSum / time.Duration(calN)
	smp.allocB = u1.allocB - u0.allocB
	smp.allocN = u1.allocN - u0.allocN
	smp.gcCycles = u1.gcCycles - u0.gcCycles
	smp.gcCPU = u1.gcCPU - u0.gcCPU

	verifyID := sp.begin("verify", passID)
	smp.out = p.finish()
	sp.end(verifyID)
	smp.last = len(sp.list)
	return smp, nil
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// scale returns d, measured while the calibration took cal, in seconds as
// it would read on a host on which the calibration takes calRef.
func scale(d, cal time.Duration) float64 {
	return d.Seconds() * calRef.Seconds() / cal.Seconds()
}

// scaled returns d, measured in pass s, scaled by the pass's mean
// calibration.
func (s *sample) scaled(d time.Duration) float64 { return scale(d, s.calib) }

// medianOf returns the median of f over the samples.
func medianOf(ss []*sample, f func(*sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return median(vs)
}

// p99 returns the nearest-rank 99th percentile of vs and how many values lie
// strictly above it.
func p99(vs []int64) (v int64, beyond int) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	i := (len(s)*99+99)/100 - 1
	return s[i], len(s) - 1 - i
}
