package reqtrace

import (
	"bytes"
	"reflect"
	"testing"

	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
)

// mixedStep is one request of the mixed-class sequence: an offload record
// (synthetic), an IO chain of pre-classified stages, or an abort.
type mixedStep struct {
	kind     string
	submit   int64
	complete int64
	// offload shape
	start, halt, busy, refill int64
	// io chain
	stages []Segment
	abort  bool
}

// mixedSequence interleaves IO and offload records so that every step
// introduces at most one new critical-segment class, in this order:
// flash-wait, dram-wait, host-link-wait, unattributed (an undershooting
// chain), core-busy, stream-refill-wait, queueing, drain. An abort and
// repeats of known classes ride along.
var mixedSequence = []mixedStep{
	{kind: "io-read", submit: 0, complete: 100, stages: []Segment{{ClassFlashWait, 100}}},
	{kind: "io-read", submit: 10, complete: 110, stages: []Segment{{ClassFlashWait, 60}, {ClassDRAMWait, 40}}},
	{kind: "io-write", submit: 20, complete: 110, stages: []Segment{{ClassHostLink, 30}, {ClassDRAMWait, 20}, {ClassFlashWait, 40}}},
	{kind: "io-write", submit: 30, abort: true},
	{kind: "io-read", submit: 40, complete: 120, stages: []Segment{{ClassFlashWait, 50}}},
	{kind: "offload", submit: 0, start: 0, halt: 500, complete: 500, busy: 500},
	{kind: "offload", submit: 0, start: 0, halt: 1000, complete: 1000, busy: 600, refill: 400},
	{kind: "io-read", submit: 50, complete: 170, stages: []Segment{{ClassFlashWait, 70}, {ClassDRAMWait, 20}, {ClassHostLink, 40}}},
	{kind: "offload", submit: 0, start: 200, halt: 1200, complete: 1200, busy: 600, refill: 400},
	{kind: "offload", submit: 100, start: 200, halt: 1300, complete: 1500, busy: 600, refill: 400},
	{kind: "io-write", submit: 60, complete: 150, stages: []Segment{{ClassHostLink, 30}, {ClassDRAMWait, 20}, {ClassFlashWait, 40}}},
}

// replayMixed feeds mixedSequence to tr and returns the sink's metric names
// in the order they were registered, failing if one step registers more
// than one (the sink's listing is sorted, so only single additions show
// their order).
func replayMixed(t *testing.T, sink *telemetry.Sink, tr *Tracer) []string {
	t.Helper()
	var order []string
	seen := map[string]bool{}
	note := func(step int) {
		var fresh []string
		for _, m := range sink.Registered() {
			if name := m.Component + "/" + m.Name; !seen[name] {
				seen[name] = true
				fresh = append(fresh, name)
			}
		}
		if len(fresh) > 1 {
			t.Fatalf("step %d registered %v at once", step, fresh)
		}
		order = append(order, fresh...)
	}
	note(-1)
	for i, st := range mixedSequence {
		switch {
		case st.kind == "offload":
			synthetic(tr, st.submit, st.start, st.halt, st.complete, st.busy, st.refill)
		case st.abort:
			tr.Abort(tr.Begin(st.kind, "", st.submit))
		default:
			r := tr.Begin(st.kind, "", st.submit)
			r.SetTenant("gold")
			for _, sg := range st.stages {
				r.AddPathStage(sg.Class, sg.DurPs)
			}
			tr.Complete(r, st.complete)
		}
		note(i)
	}
	return order
}

// TestCriticalClassSlotsKeepOutput pins what the per-class slots must keep
// from the map-based accounting they replaced: each class's histogram is
// registered when the class is first seen, and the summary's critical
// totals and text report are those the map-based tracer produced for the
// same request sequence.
func TestCriticalClassSlotsKeepOutput(t *testing.T) {
	sink := telemetry.NewSink()
	tr := New(sink, Config{TopK: 3})
	order := replayMixed(t, sink, tr)

	crit := func(class string) string { return "req/crit_" + class + "_ps" }
	wantOrder := []string{
		"req/latency_ps",
		crit(ClassFlashWait), crit(ClassDRAMWait), crit(ClassHostLink), crit(ClassUnattributed),
		crit(analyze.ClassCoreBusy), crit(analyze.ClassStreamRefillWait), crit(ClassQueueing), crit(ClassDrain),
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("registration order\n got %q\nwant %q", order, wantOrder)
	}

	s := tr.Summary("mixed")
	wantTotals := map[string]int64{
		ClassFlashWait:                100 + 60 + 40 + 50 + 70 + 40,
		ClassDRAMWait:                 40 + 20 + 20 + 20,
		ClassHostLink:                 30 + 30 + 30, // the 130 ps read chain is cut to its 120 ps latency
		ClassUnattributed:             30,
		analyze.ClassCoreBusy:         500 + 600 + 600 + 600,
		analyze.ClassStreamRefillWait: 400 + 400 + 400,
		ClassQueueing:                 200 + 200,
		ClassDrain:                    200,
	}
	if !reflect.DeepEqual(s.CriticalTotalsPs, wantTotals) {
		t.Fatalf("CriticalTotalsPs\n got %v\nwant %v", s.CriticalTotalsPs, wantTotals)
	}
	var sum int64
	for _, v := range s.CriticalTotalsPs {
		sum += v
	}
	if sum != s.LatencySumPs {
		t.Fatalf("critical totals sum to %d, latency sum is %d", sum, s.LatencySumPs)
	}
	for class, v := range wantTotals {
		if h := sink.Metrics().Histograms["req/crit_"+class+"_ps"]; h.Sum != v {
			t.Fatalf("crit_%s_ps sums %d, want %d", class, h.Sum, v)
		}
	}

	// The text report, byte for byte as the map-based tracer wrote it.
	const wantText = "requests mixed: 10 completed, mean 468ps, max 1.400ns\n" +
		"  critical-path totals: core-busy 49.1% drain 4.3% dram-wait 2.1% flash-wait 7.7% host-link-wait 1.9% queueing 8.5% stream-refill-wait 25.6% unattributed 0.6%\n" +
		"  #10  offload     1.400ns  queueing 200ps · core-busy 600ps · stream-refill-wait 400ps · drain 200ps\n" +
		"  #9   offload     1.200ns  queueing 200ps · core-busy 600ps · stream-refill-wait 400ps\n" +
		"  #7   offload     1.000ns  core-busy 600ps · stream-refill-wait 400ps\n"
	var txt bytes.Buffer
	if err := s.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if txt.String() != wantText {
		t.Fatalf("WriteText\n got %q\nwant %q", txt.String(), wantText)
	}
}
