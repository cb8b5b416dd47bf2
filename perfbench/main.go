// Command perfbench is the simulator's benchmark: it drives one workload
// through the public ssd/nvme/kernels/telemetry APIs for a fixed time,
// checks every simulated output, and prints its metrics as one JSON line.
//
//	perfbench -workload offload-stream -seed 3 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer ones
// (CPU-profiled and telemetry-traced passes). BENCHMARK.md describes every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// minPasses is the fewest measured passes a run makes, however long they
// take.
const minPasses = 3

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: offload-stream, offload-cache or io-serve")
	seed := fs.Int64("seed", refSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled and traced passes")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans")
	record := fs.Bool("record", false, "print the digests of every workload, scale and recorded seed as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record {
		return recordDigests(stdout)
	}
	if !slices.Contains(workloads, *workload) {
		return fmt.Errorf("unknown workload %q (valid: %v)", *workload, workloads)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	b := &bench{
		o:       options{workload: *workload},
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		sp:      newSpans(),
		log:     stdout,
	}
	res, err := b.measure(*trace == 1)
	if err != nil {
		return err
	}
	if *trace == 1 {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := b.sp.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	o       options
	seed    int64
	seconds time.Duration
	sp      *spans
	log     io.Writer

	genDur    time.Duration
	digest    string // the first measured pass's digest
	cmdFailed int64  // NVMe commands failed over all measured passes
	rss       int64  // peak RSS after the first measured pass
	res       result
	errShow   int
}

// measure generates the inputs, checks the model with the canary pass, and
// runs measured passes for b.seconds. With traced set, the first half of the
// time runs CPU-profiled passes of the timed configuration and the second
// half telemetry-traced ones.
func (b *bench) measure(traced bool) (*result, error) {
	root := b.sp.begin("run", 0)
	defer b.sp.end(root)
	rec, err := recorded()
	if err != nil {
		return nil, err
	}
	b.res = result{Metrics: map[string]metric{}}
	genID := b.sp.begin("gen", root)
	in, err := generate(b.o.workload, b.seed, 1)
	b.genDur = b.sp.end(genID)
	if err != nil {
		return nil, err
	}
	canaryOK, err := b.canary(rec, root)
	if err != nil {
		return nil, err
	}

	want := rec[digestKey(b.o.workload, 1, b.seed)]
	start := time.Now()
	var plain, traces []*sample
	var layerNs map[string]int64 // host ns per layer, profiled passes only
	plainEnd := b.seconds
	if traced {
		layerNs = map[string]int64{}
		plainEnd /= 2
	}
	for len(plain) < minPasses || time.Since(start) < plainEnd {
		s, err := runPass(in, b.o, b.sp, root, layerNs)
		if err != nil {
			return nil, err
		}
		b.account(s, want)
		plain = append(plain, s)
		if len(plain) == 1 {
			// The high-water mark after one pass: later passes only add
			// however much freed memory the runtime still holds, which
			// depends on GC timing and the number of passes.
			b.rss = peakRSS()
		}
	}
	if traced {
		to := b.o
		to.traced = true
		// The traced passes are profiled too, into a profile nobody reads,
		// so that trace.overhead is the cost of the telemetry alone.
		discard := map[string]int64{}
		for len(traces) < 1 || time.Since(start) < b.seconds {
			s, err := runPass(in, to, b.sp, root, discard)
			if err != nil {
				return nil, err
			}
			b.account(s, want)
			traces = append(traces, s)
		}
	}
	if !canaryOK {
		b.res.Failed = b.res.Attempted
	}
	b.res.Correct = b.res.Failed == 0
	fmt.Fprintf(b.log, "workload %s seed %d: %d passes, digest %s, %d of %d operations failed\n",
		b.o.workload, b.seed, len(plain)+len(traces), b.digest, b.res.Failed, b.res.Attempted)
	if traced {
		b.layerMetrics(plain, traces, layerNs)
	} else {
		b.endToEnd(plain)
	}
	return &b.res, nil
}

// canary runs one small pass at the reference seed and compares its digest
// with the recorded one, so every run checks that the model's results are
// unchanged whatever seed it measures.
func (b *bench) canary(rec map[string]string, root int) (bool, error) {
	key := digestKey(b.o.workload, smallDiv, refSeed)
	want, ok := rec[key]
	if !ok {
		return false, fmt.Errorf("no recorded digest for %s", key)
	}
	in, err := generate(b.o.workload, refSeed, smallDiv)
	if err != nil {
		return false, err
	}
	id := b.sp.begin("canary", root)
	s, err := runPass(in, b.o, b.sp, id, nil)
	b.sp.end(id)
	if err != nil {
		return false, err
	}
	if s.out.failed > 0 || s.out.digest != want {
		fmt.Fprintf(b.log, "canary %s: digest %s, recorded %s, %d failed\n", key, s.out.digest, want, s.out.failed)
		return false, nil
	}
	return true, nil
}

// account adds a pass's operations to the result. A pass whose digest
// differs from the recorded one (or, unrecorded, from the run's first pass)
// fails all its operations.
func (b *bench) account(s *sample, want string) {
	o := s.out
	if b.digest == "" {
		b.digest = o.digest
	}
	if want == "" {
		want = b.digest
	}
	failed := o.failed
	if o.digest != want {
		failed = o.ops
		fmt.Fprintf(b.log, "digest %s differs from %s\n", o.digest, want)
	}
	for _, err := range o.errs {
		if b.errShow < 5 {
			fmt.Fprintf(b.log, "error: %v\n", err)
			b.errShow++
		}
	}
	b.res.Attempted += o.ops
	b.res.Failed += failed
	b.cmdFailed += o.cmdFailed
}

func (b *bench) put(name, unit string, v float64) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd reports the medians of the measured passes. Host times are
// scaled by each pass's calibration, so that they follow the simulator's
// speed and not the shared host's; the raw medians go to the log.
func (b *bench) endToEnd(ss []*sample) {
	wall := func(s *sample) float64 { return s.wallScaled }
	b.put("wall_s", "s", medianOf(ss, wall))
	b.put("cpu_s", "s", medianOf(ss, func(s *sample) float64 { return s.cpuScaled }))
	b.put("setup_s", "s", medianOf(ss, func(s *sample) float64 { return s.scaled(s.setup) }))
	b.put("alloc_mb", "MB", medianOf(ss, func(s *sample) float64 { return float64(s.allocB) / 1e6 }))
	b.put("rss_peak_mb", "MB", float64(b.rss)/1e6)
	b.put("minst_per_s", "Minst/s", medianOf(ss, func(s *sample) float64 {
		return float64(s.out.insts) / 1e6 / wall(s)
	}))
	b.put("kreq_per_s", "kcmd/s", medianOf(ss, func(s *sample) float64 {
		return float64(s.out.ops-s.out.failed) / 1e3 / wall(s)
	}))
	fmt.Fprintf(b.log, "unscaled medians: wall %.4f s, cpu %.4f s, setup %.5f s, calibration %.4f s (nominal %v)\n",
		medianOf(ss, func(s *sample) float64 { return s.wall.Seconds() }),
		medianOf(ss, func(s *sample) float64 { return s.cpu.Seconds() }),
		medianOf(ss, func(s *sample) float64 { return s.setup.Seconds() }),
		medianOf(ss, func(s *sample) float64 { return s.calib.Seconds() }), calRef)
	// The simulated metrics repeat exactly from pass to pass.
	o := ss[0].out
	gbps := 0.0
	if o.simPs > 0 {
		gbps = float64(o.simBytes) / float64(o.simPs) * 1e3
	}
	b.put("sim_gbps", "GB/s", gbps)
	v, beyond := p99(o.latPs)
	b.put("sim_p99_us", "us", float64(v)/1e6)
	fmt.Fprintf(b.log, "sim_p99_us: %d samples, %d beyond the P99; open-loop generator lateness is 0 by construction\n",
		len(o.latPs), beyond)
}

// layerMetrics reports the per-layer metrics: host shares and runtime
// figures from the profiled passes, counts from the traced passes, and
// call times from the spans of both, scaled like the end-to-end times.
func (b *bench) layerMetrics(prof, traces []*sample, layerNs map[string]int64) {
	all := append(slices.Clone(prof), traces...)
	perPass := func(ss []*sample, name string) float64 {
		return medianOf(ss, func(s *sample) float64 { return s.scaled(b.sp.sum(name, s.first, s.last)) })
	}
	b.put("ssd.new_s", "s", perPass(all, "ssd.New"))
	b.put("ssd.install_s", "s", perPass(all, "ssd.InstallBytes"))
	b.put("ssd.build_tasks_s", "s", perPass(all, "ssd.BuildTasks"))
	b.put("bench.gen_s", "s", b.genDur.Seconds())
	b.put("bench.calib_s", "s", medianOf(all, func(s *sample) float64 { return s.calib.Seconds() }))
	for _, k := range []string{"stat", "filter", "raid6", "dedup", "aes", "scan"} {
		b.put("offload."+k+".host_s", "s", perPass(prof, "offload."+k))
	}
	wallP := medianOf(prof, func(s *sample) float64 { return s.wallScaled })
	wallT := medianOf(traces, func(s *sample) float64 { return s.wallScaled })
	b.put("trace.overhead", "ratio", wallT/wallP-1)

	var total int64
	for _, ns := range layerNs {
		total += ns
	}
	for _, l := range hostLayers {
		share := 0.0
		if total > 0 {
			share = float64(layerNs[l]) / float64(total)
		}
		b.put(l+".host_share", "fraction", share)
	}
	var insts int64
	for _, s := range prof {
		insts += s.out.insts
	}
	nsPerInst := 0.0
	if insts > 0 {
		nsPerInst = float64(layerNs["cpu"]) / float64(insts)
	}
	b.put("cpu.host_ns_per_inst", "ns", nsPerInst)

	o := traces[len(traces)-1].out
	b.put("cpu.insts", "count", float64(o.insts))
	b.put("cpu.dispatches", "count", float64(o.dispatches))
	counts := map[string]string{
		"memhier.stream.pages":          "stream/push_pages",
		"memhier.stream.refill_stalls":  "stream/refill_stalls",
		"memhier.cache.l1_hits":         "cache/l1_hits",
		"memhier.cache.l1_misses":       "cache/l1_misses",
		"memhier.cache.prefetch_useful": "cache/l1_prefetch_useful",
		"firmware.pages_fed":            "fw/pages_fed",
		"firmware.pages_drained":        "fw/pages_drained",
		"crossbar.grants":               "xbar/grants",
		"crossbar.conflicts":            "xbar/conflicts",
		"sim.dispatches":                "sched/dispatches",
		"flash.senses":                  "flash/senses",
		"flash.programs":                "flash/programs",
		"flash.erases":                  "flash/erases",
		"ftl.lookups":                   "ftl/lookups",
		"ftl.host_writes":               "ftl/host_writes",
		"ftl.gc_invocations":            "ftl/gc_invocations",
	}
	for name, key := range counts {
		b.put(name, "count", float64(o.counts[key]))
	}
	b.put("memhier.dram.bytes", "bytes", float64(o.counts["dram/total_bytes"]))
	b.put("sim.events", "count", float64(o.events))
	b.put("nvme.reads", "count", float64(o.reads))
	b.put("nvme.writes", "count", float64(o.writes))
	b.put("nvme.failed", "count", float64(b.cmdFailed))
	b.put("telemetry.requests_traced", "count", float64(o.traced))
	b.put("nvme.allocs_per_cmd", "count", medianOf(prof, func(s *sample) float64 {
		if n := s.out.reads + s.out.writes; n > 0 {
			return float64(s.allocN) / float64(n)
		}
		return 0
	}))
	b.put("runtime.gc_cycles", "count", medianOf(prof, func(s *sample) float64 { return float64(s.gcCycles) }))
	b.put("runtime.gc_cpu_frac", "fraction", medianOf(prof, func(s *sample) float64 { return s.gcCPU / s.cpu.Seconds() }))
	b.put("runtime.mallocs", "count", medianOf(prof, func(s *sample) float64 { return float64(s.allocN) }))
	b.put("runtime.heap_peak_mb", "MB", medianOf(prof, func(s *sample) float64 { return float64(s.heapPeak) / 1e6 }))
}

// recordDigests prints the digest of every workload at both scales for both
// recorded seeds, in the format of digests.json.
func recordDigests(w io.Writer) error {
	m := map[string]string{}
	for _, wl := range workloads {
		for _, div := range []int{1, smallDiv} {
			for _, seed := range []int64{refSeed, heldOutSeed} {
				d, err := passDigest(wl, seed, div, options{workload: wl})
				if err != nil {
					return err
				}
				m[digestKey(wl, div, seed)] = d
			}
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// passDigest runs one pass of workload and returns its digest, failing if
// any operation failed.
func passDigest(workload string, seed int64, div int, o options) (string, error) {
	in, err := generate(workload, seed, div)
	if err != nil {
		return "", err
	}
	s, err := runPass(in, o, newSpans(), 0, nil)
	if err != nil {
		return "", err
	}
	if s.out.failed > 0 {
		return "", fmt.Errorf("%s seed %d: %d operations failed: %v", workload, seed, s.out.failed, s.out.errs)
	}
	return s.out.digest, nil
}
