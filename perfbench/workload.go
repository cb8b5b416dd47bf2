package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"slices"

	"assasin/internal/asm"
	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/nvme"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

// workloads names every workload the benchmark runs.
var workloads = []string{"offload-stream", "offload-cache", "io-serve"}

// options configure one pass.
type options struct {
	workload string
	exec     cpu.ExecMode
	plane    firmware.PlaneMode
	// traced attaches a telemetry sink to offload drives and publishes the
	// component counters at the end of the pass. io-serve always runs with
	// its sink, as assasin-serve -load does.
	traced bool
}

// arch is the drive configuration of an offload workload: the stream ISA
// path, or caches + DRAM + the DCPT prefetcher.
func (o options) arch() ssd.Arch {
	if o.workload == "offload-cache" {
		return ssd.Prefetch
	}
	return ssd.AssasinSb
}

// inputs are one workload's generated inputs, shared by all passes of a run.
type inputs struct {
	jobs  []*job      // offload-*
	sched *ioSchedule // io-serve
}

// generate builds the inputs of workload from seed and the outputs the
// reference implementations expect. div scales the run down (1 = full).
func generate(workload string, seed int64, div int) (*inputs, error) {
	switch workload {
	case "offload-stream", "offload-cache":
		jobs := genJobs(seed, div)
		for _, j := range jobs {
			if err := j.expect(); err != nil {
				return nil, err
			}
		}
		return &inputs{jobs: jobs}, nil
	case "io-serve":
		return &inputs{sched: genSchedule(seed, div, ssd.DefaultFlashConfig().PageSize)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", workload, workloads)
}

// driveCores is the compute-engine count of every drive (the ssd default).
const driveCores = 8

// expect fills j.want from the kernel's reference implementation over the
// same per-core partition BuildTasks makes.
func (j *job) expect() error {
	if st, ok := j.kernel.(kernels.Stat); ok {
		j.wantSum = st.RefSum(j.inputs[0])
		return nil
	}
	for _, r := range ssd.PartitionBytes(int64(len(j.inputs[0])), driveCores, j.recordSize) {
		parts := make([][]byte, len(j.inputs))
		for i, in := range j.inputs {
			parts[i] = in[r.Start:r.End]
		}
		ref, err := j.kernel.Reference(parts)
		if err != nil {
			return fmt.Errorf("%s reference: %w", j.kernel.Name(), err)
		}
		j.want = append(j.want, ref)
	}
	return nil
}

// check compares one offload's result with the expected outputs.
func (j *job) check(res *ssd.Result) error {
	var in int64
	for _, b := range j.inputs {
		in += int64(len(b))
	}
	if res.InputBytes != in {
		return fmt.Errorf("%s: %d input bytes delivered, want %d", j.kernel.Name(), res.InputBytes, in)
	}
	if _, ok := j.kernel.(kernels.Stat); ok {
		var sum uint32
		for _, regs := range res.FinalRegs {
			sum += regs[asm.S0]
		}
		if sum != j.wantSum {
			return fmt.Errorf("stat: sum %#x, want %#x", sum, j.wantSum)
		}
		return nil
	}
	if len(res.Outputs) != len(j.want) {
		return fmt.Errorf("%s: %d tasks, want %d", j.kernel.Name(), len(res.Outputs), len(j.want))
	}
	for t, outs := range res.Outputs {
		for s, got := range outs {
			if !bytes.Equal(got, j.want[t][s]) {
				return fmt.Errorf("%s: task %d output %d differs from the reference", j.kernel.Name(), t, s)
			}
		}
	}
	return nil
}

// passOut is what one pass produced, outside its timings.
type passOut struct {
	ops, failed int64
	cmdFailed   int64 // NVMe read/write commands that failed or never completed
	errs        []error
	digest      string
	insts       int64
	dispatches  int64
	simBytes    int64   // simulated bytes moved (offload input, or I/O payload)
	simPs       int64   // simulated time those bytes took
	latPs       []int64 // simulated latencies of the pass's commands
	reads       int64
	writes      int64
	events      int64 // events the benchmark's Drain call dispatched
	traced      int64 // requests the reqtrace tracer completed
	counts      map[string]int64
}

// pass is one set-up → timed phase → check cycle on a fresh drive. run is
// the timed phase; it calls pause, when non-nil, between its parts.
type pass interface {
	setup(sp *spans, parent int) error
	run(sp *spans, parent int, pause func())
	finish() *passOut
}

func newPass(in *inputs, o options) pass {
	if in.sched != nil {
		return &ioPass{o: o, s: in.sched}
	}
	return &offloadPass{o: o, jobs: in.jobs}
}

// offloadPass runs the kernel set closed-loop, one offload at a time, on
// one drive.
type offloadPass struct {
	o     options
	jobs  []*job
	drive *ssd.SSD
	tel   *telemetry.Sink
	tasks [][]ssd.TaskSpec
	res   []*ssd.Result
	errs  []error
}

func (p *offloadPass) setup(sp *spans, parent int) error {
	if p.o.traced {
		p.tel = telemetry.NewSink()
		p.tel.MaxEvents = -1
	}
	sp.do("ssd.New", parent, func() error {
		p.drive = ssd.New(ssd.Options{Arch: p.o.arch(), Exec: p.o.exec, DataPlane: p.o.plane, Telemetry: p.tel})
		return nil
	})
	for _, j := range p.jobs {
		var lpas [][]int
		var lens []int64
		for _, in := range j.inputs {
			if err := sp.do("ssd.InstallBytes", parent, func() error {
				l, err := p.drive.InstallBytes(in)
				lpas = append(lpas, l)
				return err
			}); err != nil {
				return err
			}
			lens = append(lens, int64(len(in)))
		}
		var tasks []ssd.TaskSpec
		if err := sp.do("ssd.BuildTasks", parent, func() (err error) {
			tasks, err = p.drive.BuildTasks(ssd.KernelRun{
				Kernel: j.kernel, Inputs: lpas, InputBytes: lens, RecordSize: j.recordSize,
				OutKind: j.outKind, Collect: j.outKind != firmware.OutDiscard,
			})
			return err
		}); err != nil {
			return err
		}
		p.tasks = append(p.tasks, tasks)
	}
	p.res = make([]*ssd.Result, len(p.jobs))
	p.errs = make([]error, len(p.jobs))
	return nil
}

func (p *offloadPass) run(sp *spans, parent int, pause func()) {
	for i, j := range p.jobs {
		if i > 0 && pause != nil {
			pause()
		}
		id := sp.begin(offloadSpan(j.kernel), parent)
		p.res[i], p.errs[i] = p.drive.RunOffload(p.tasks[i], 0)
		sp.end(id)
	}
}

// offloadSpan names the span around one kernel's RunOffload call.
func offloadSpan(k kernels.Kernel) string { return "offload." + k.Name() }

func (p *offloadPass) finish() *passOut {
	out := &passOut{}
	h := sha256.New()
	for i, j := range p.jobs {
		out.ops++
		res, err := p.res[i], p.errs[i]
		if err == nil {
			err = j.check(res)
		}
		if err != nil {
			out.failed++
			out.errs = append(out.errs, err)
			fmt.Fprintf(h, "%s failed\n", j.kernel.Name())
			continue
		}
		hashResult(h, j.kernel.Name(), res)
		out.simBytes += res.InputBytes
		out.simPs += int64(res.Duration)
		out.latPs = append(out.latPs, int64(res.Duration))
	}
	for _, c := range p.drive.Cores {
		st := c.Stats()
		out.insts += st.Instructions
		out.dispatches += st.Dispatches
	}
	writeLE(h, p.drive.FTL.Stats(), p.drive.DRAM.TotalBytes())
	out.digest = hex.EncodeToString(h.Sum(nil))
	if p.tel != nil {
		p.drive.PublishStats()
		out.counts = sinkCounts(p.tel)
	}
	return out
}

// hashResult feeds one offload's simulated outcome into h: duration, input
// bytes, every task's outputs, final registers and core statistics.
func hashResult(h hash.Hash, name string, res *ssd.Result) {
	fmt.Fprintf(h, "%s\n", name)
	writeLE(h, int64(res.Duration), res.InputBytes)
	for t := range res.CoreStats {
		for _, o := range res.Outputs[t] {
			writeLE(h, int64(len(o)))
			h.Write(o)
		}
		writeLE(h, res.FinalRegs[t], res.CoreStats[t])
	}
}

// writeLE appends the little-endian encoding of fixed-size values to h.
func writeLE(h hash.Hash, vs ...any) {
	for _, v := range vs {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err) // only fixed-size values are passed
		}
	}
}

// sinkCounts flattens a sink's counters and gauges to "component/name".
func sinkCounts(tel *telemetry.Sink) map[string]int64 {
	m := tel.Metrics()
	out := make(map[string]int64, len(m.Counters)+len(m.Gauges))
	for k, v := range m.Counters {
		out[k] = v
	}
	for k, g := range m.Gauges {
		out[k] = g.Value
	}
	return out
}

// ioPass is the open-loop serving workload: Poisson arrivals replayed from
// the pre-drawn schedule through nvme, with reqtrace and the SLO/window
// engine attached, beside one concurrent Scan offload.
type ioPass struct {
	o       options
	s       *ioSchedule
	eng     *slo.Engine
	tel     *telemetry.Sink
	tracer  *reqtrace.Tracer
	drive   *ssd.SSD
	ctl     *nvme.Controller
	keyLPAs []int
	tasks   []ssd.TaskSpec

	scan    *ssd.Result
	scanErr error
	next    int
	fire    func(sim.Time)
	latPs   []int64
	maxDone sim.Time
	reads   int64
	writes  int64
	ioErrs  []error
	events  int
}

// ioObjectives are assasin-serve's default load objectives: a 400 µs
// latency SLO per tenant and an aggregate 800 µs one.
func ioObjectives() []slo.Objective {
	var objs []slo.Objective
	for _, t := range ioTenants {
		objs = append(objs, slo.Objective{Name: t, Tenant: t, Target: 0.999, LatencyPs: 400 * int64(sim.Microsecond)})
	}
	return append(objs, slo.Objective{Name: "all", Target: 0.99, LatencyPs: 800 * int64(sim.Microsecond)})
}

func (p *ioPass) setup(sp *spans, parent int) error {
	if err := sp.do("slo.New", parent, func() (err error) {
		p.eng, err = slo.New(slo.Config{
			Objectives: ioObjectives(),
			Window:     window.Config{WindowPs: 10 * int64(sim.Millisecond), Buckets: 20},
		})
		return err
	}); err != nil {
		return err
	}
	p.tel = telemetry.NewSink()
	p.tel.MaxEvents = -1
	p.tracer = reqtrace.New(p.tel, reqtrace.Config{TopK: 8})
	sp.do("ssd.New", parent, func() error {
		p.drive = ssd.New(ssd.Options{
			Arch: ssd.AssasinSb, Exec: p.o.exec, DataPlane: p.o.plane,
			Telemetry: p.tel, Requests: p.tracer, OnAdvance: p.eng.Tick,
		})
		return nil
	})
	// Per-tenant live rates and latency windows, as the load experiment
	// registers them beside the objectives.
	type acc struct {
		tenant string
		rate   *window.Rate
		hist   *window.Hist
	}
	var accs []acc
	for _, t := range append(slices.Clone(ioTenants), ioBatch) {
		accs = append(accs, acc{t, p.eng.Windows().Rate("tenant/" + t + "/req"), p.eng.Windows().Hist("tenant/" + t + "/latency")})
	}
	p.tracer.OnComplete = func(r *reqtrace.Request) {
		done := r.SubmitPs + r.LatencyPs
		p.eng.ObserveRequest(done, r.Tenant, r.Kind, r.LatencyPs, false)
		for _, a := range accs {
			if a.tenant == r.Tenant {
				a.rate.Inc(done)
				a.hist.Observe(done, r.LatencyPs)
			}
		}
	}
	p.tracer.OnAbort = func(r *reqtrace.Request) {
		p.eng.ObserveRequest(r.SubmitPs, r.Tenant, r.Kind, 0, true)
	}
	if err := sp.do("ssd.InstallBytes", parent, func() (err error) {
		p.keyLPAs, err = p.drive.InstallBytes(p.s.keys)
		return err
	}); err != nil {
		return err
	}
	var scanLPAs []int
	if err := sp.do("ssd.InstallBytes", parent, func() (err error) {
		scanLPAs, err = p.drive.InstallBytes(p.s.scan)
		return err
	}); err != nil {
		return err
	}
	if err := sp.do("ssd.BuildTasks", parent, func() (err error) {
		p.tasks, err = p.drive.BuildTasks(ssd.KernelRun{
			Kernel: kernels.Scan{}, Inputs: [][]int{scanLPAs}, InputBytes: []int64{int64(len(p.s.scan))},
			RecordSize: 16, OutKind: firmware.OutDiscard,
		})
		return err
	}); err != nil {
		return err
	}
	sp.do("nvme.New", parent, func() error {
		p.ctl = nvme.New(p.drive, nvme.DefaultConfig())
		return nil
	})
	p.latPs = make([]int64, 0, len(p.s.gapPs))
	p.fire = p.arrive
	return nil
}

// arrive submits the next scheduled command at its due time and schedules
// the one after it, so the event queue holds one pending arrival at a time.
// SubmitAt is the due time, so a command's latency counts any stall before
// it is serviced; the generator itself is never late.
func (p *ioPass) arrive(now sim.Time) {
	i := p.next
	p.next++
	p.eng.Tick(int64(now))
	req := nvme.IORequest{LPA: p.keyLPAs[p.s.key[i]], Pages: 1, SubmitAt: now, Tenant: ioTenants[p.s.tenant[i]]}
	if p.s.write[i] {
		req.Op, req.Data = nvme.OpWrite, p.s.page
	} else {
		req.Op, req.Discard = nvme.OpRead, true
	}
	p.ctl.Submit(req, p.done)
	if p.next < len(p.s.gapPs) {
		p.drive.Sched.Events.Schedule(now+sim.Time(p.s.gapPs[p.next]), p.fire)
	}
}

// done accounts one completed command.
func (p *ioPass) done(c nvme.IOCompletion) {
	if c.Err != nil {
		p.ioErrs = append(p.ioErrs, fmt.Errorf("%v lpa %d: %w", c.Req.Op, c.Req.LPA, c.Err))
		return
	}
	if c.Req.Op == nvme.OpWrite {
		p.writes++
	} else {
		p.reads++
	}
	p.latPs = append(p.latPs, int64(c.Latency))
	p.maxDone = max(p.maxDone, c.Done)
}

func (p *ioPass) run(sp *spans, parent int, pause func()) {
	if len(p.s.gapPs) > 0 {
		p.drive.Sched.Events.Schedule(sim.Time(p.s.gapPs[0]), p.fire)
	}
	// RunOffload drives the shared event queue, so arrivals interleave with
	// the scan; it returns once the scan is done and the first simulated
	// second has been flushed, and Drain dispatches the rest.
	id := sp.begin(offloadSpan(kernels.Scan{}), parent)
	p.drive.SetRequestLabel(nvme.OpSComp.String())
	p.drive.SetRequestTenant(ioBatch)
	p.scan, p.scanErr = p.drive.RunOffload(p.tasks, sim.Second)
	sp.end(id)
	if pause != nil {
		pause()
	}
	id = sp.begin("sim.Drain", parent)
	p.events = p.drive.Sched.Events.Drain(0)
	sp.end(id)
}

func (p *ioPass) finish() *passOut {
	n := int64(len(p.s.gapPs))
	out := &passOut{
		ops:    n + 1,
		failed: int64(len(p.ioErrs)),
		errs:   p.ioErrs,
		reads:  p.reads,
		writes: p.writes,
		events: int64(p.events),
		traced: p.tracer.Count(),
		latPs:  p.latPs,
	}
	if missing := n - int64(len(p.latPs)) - int64(len(p.ioErrs)); missing > 0 {
		out.failed += missing
		out.errs = append(out.errs, fmt.Errorf("%d of %d commands never completed", missing, n))
	}
	out.cmdFailed = out.failed
	h := sha256.New()
	scanErr := p.scanErr
	if scanErr == nil && p.scan.InputBytes != int64(len(p.s.scan)) {
		scanErr = fmt.Errorf("scan: %d input bytes delivered, want %d", p.scan.InputBytes, len(p.s.scan))
	}
	if scanErr != nil {
		out.failed++
		out.errs = append(out.errs, scanErr)
		fmt.Fprintf(h, "scan failed\n")
	} else {
		hashResult(h, "scan", p.scan)
	}
	writeLE(h, p.latPs, p.reads, p.writes, p.drive.FTL.Stats())
	endPs := int64(p.maxDone)
	p.eng.Tick(endPs)
	lat := p.tel.Histogram("req", "latency_ps")
	writeLE(h, lat.Count(), lat.Sum(), p.tracer.Count())
	for _, v := range []any{p.eng.Status(endPs), p.eng.Windows().Snapshot(endPs)} {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // the SLO status and window snapshot are plain data
		}
		h.Write(b)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	for _, c := range p.drive.Cores {
		st := c.Stats()
		out.insts += st.Instructions
		out.dispatches += st.Dispatches
	}
	out.simBytes = (p.reads + p.writes) * int64(p.drive.Opt.Flash.PageSize)
	out.simPs = endPs
	p.drive.PublishStats()
	out.counts = sinkCounts(p.tel)
	return out
}
