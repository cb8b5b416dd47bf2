package nvme

import (
	"testing"

	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

// TestSubmitSteadyStateZeroAlloc pins the per-command zero-cost contract of
// conventional IO with the serving stack attached: a request tracer on a
// telemetry sink, an SLO engine ticked by the scheduler and fed from
// reqtrace completions, and a completion callback bound once. After warm-up,
// one read or write through Submit → execute → Complete → ObserveRequest
// (and the window rotations and burn-rate evaluations it triggers) must not
// allocate.
//
// Writes store their page in the flash model, which carves page copies out
// of 128-page arena chunks and builds block state once per 64-page block.
// That is the model's functional data, not per-command overhead: it
// amortizes below one allocation per command, which AllocsPerRun's
// per-run integer average does not count, while any allocation made on
// every command reads as at least 1.
func TestSubmitSteadyStateZeroAlloc(t *testing.T) {
	eng, err := slo.New(slo.Config{
		Objectives: []slo.Objective{
			{Name: "gold", Tenant: "gold", Target: 0.999, LatencyPs: 400 * int64(sim.Microsecond)},
			{Name: "reads", Class: "io-read", Target: 0.99, LatencyPs: 800 * int64(sim.Microsecond)},
		},
		Window: window.Config{WindowPs: 2 * int64(sim.Millisecond), Buckets: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink()
	tracer := reqtrace.New(sink, reqtrace.Config{TopK: 4})
	tracer.OnComplete = func(r *reqtrace.Request) {
		eng.ObserveRequest(r.SubmitPs+r.LatencyPs, r.Tenant, r.Kind, r.LatencyPs, false)
	}
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2, Telemetry: sink, Requests: tracer, OnAdvance: eng.Tick})
	lpas, _ := installData(t, s, 64*s.Opt.Flash.PageSize, 5)
	ctl := c2(s)
	page := make([]byte, s.Opt.Flash.PageSize)

	var done, failed int
	onDone := func(c IOCompletion) {
		done++
		if c.Err != nil {
			failed++
		}
	}
	var now sim.Time
	n := 0
	submit := func(op Opcode) func() {
		return func() {
			// 30 µs apart: several commands per 100 µs window bucket, so
			// the measured commands also rotate the rings and evaluate
			// the burn-rate rules.
			now += 30 * sim.Microsecond
			req := IORequest{Op: op, LPA: lpas[n%len(lpas)], Pages: 1, SubmitAt: now, Tenant: "gold"}
			if op == OpWrite {
				req.Data = page
			} else {
				req.Discard = true
			}
			n++
			ctl.Submit(req, onDone)
			s.Sched.Events.Drain(0)
		}
	}
	read, write := submit(OpRead), submit(OpWrite)
	// Warm-up: grow the tracer's record pool and top-K set, every critical
	// class slot, the submission pool, and the FTL's and flash's per-chip
	// state for every chip the keys map to.
	for i := 0; i < 4*len(lpas); i++ {
		read()
		write()
	}
	for _, c := range []struct {
		name string
		f    func()
	}{{"read", read}, {"write", write}} {
		if allocs := testing.AllocsPerRun(200, c.f); allocs != 0 {
			t.Errorf("one %s command allocates %.0f times, want 0", c.name, allocs)
		}
	}
	if failed != 0 || done != n {
		t.Fatalf("%d of %d commands completed, %d failed", done, n, failed)
	}
	if eng.Evaluations() == 0 {
		t.Fatal("the SLO engine never evaluated: the measured path missed the rotations")
	}
}
