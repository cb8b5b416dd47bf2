package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
)

// TestDigestIsModelOnly checks that the small-scale digest of every
// workload is the recorded one under every core engine and data plane: the
// digest measures the model, not how the simulator computes it.
func TestDigestIsModelOnly(t *testing.T) {
	rec, err := recorded()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		want := rec[digestKey(wl, smallDiv, refSeed)]
		for _, ex := range []cpu.ExecMode{cpu.ExecCompiled, cpu.ExecFused, cpu.ExecPrecise} {
			for _, pl := range []firmware.PlaneMode{firmware.PlaneCoalesced, firmware.PlanePerPage} {
				got, err := passDigest(wl, refSeed, smallDiv, options{workload: wl, exec: ex, plane: pl})
				if err != nil {
					t.Fatalf("%s %v %v: %v", wl, ex, pl, err)
				}
				if got != want {
					t.Errorf("%s -exec %v -dataplane %v: digest %s, recorded %s", wl, ex, pl, got, want)
				}
			}
		}
	}
}

// TestDigestSeeds checks that a seed reproduces its digest, that the
// held-out seed matches its own recorded digest, and that the two differ.
func TestDigestSeeds(t *testing.T) {
	rec, err := recorded()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		o := options{workload: wl}
		a, err := passDigest(wl, heldOutSeed, smallDiv, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := passDigest(wl, heldOutSeed, smallDiv, o)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed %d gave digests %s and %s", wl, heldOutSeed, a, b)
		}
		if want := rec[digestKey(wl, smallDiv, heldOutSeed)]; a != want {
			t.Errorf("%s: held-out seed digest %s, recorded %s", wl, a, want)
		}
		if a == rec[digestKey(wl, smallDiv, refSeed)] {
			t.Errorf("%s: seeds %d and %d share a digest", wl, refSeed, heldOutSeed)
		}
	}
}

// TestLayerMapComplete checks that every package of the module maps to
// exactly one layer, and that every rule still names a package.
func TestLayerMapComplete(t *testing.T) {
	out, err := exec.Command("go", "list", "assasin/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	used := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		var layers []string
		for _, r := range layerRules {
			if ruleMatches(r.pkg, pkg) {
				layers = append(layers, r.layer)
				used[r.pkg] = true
			}
		}
		if len(layers) != 1 {
			t.Errorf("%s maps to %d layers %v, want exactly one", pkg, len(layers), layers)
		}
	}
	for _, r := range layerRules {
		if !used[r.pkg] {
			t.Errorf("rule %s matches no package", r.pkg)
		}
	}
}

func TestFoldStack(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"assasin/internal/memhier.(*InStream).gather", "assasin/internal/cpu.(*Core).runLoop"}, "memhier.stream"},
		{[]string{"assasin/internal/memhier.(*Scratchpad).Read"}, "memhier.scratchpad"},
		{[]string{"assasin/internal/memhier.(*Cache).lookup"}, "memhier.cache"},
		{[]string{"assasin/internal/memhier.DRAMLevel.Access"}, "memhier.cache"},
		{[]string{"runtime.mapaccess1_fast32", "assasin/internal/memhier.(*Prefetcher).Observe"}, "memhier.cache"},
		{[]string{"internal/runtime/maps.h2", "runtime.mapaccess2", "assasin/internal/ftl.(*FTL).Read"}, "ftl"},
		{[]string{"runtime.memmove", "assasin/internal/flash.(*Array).Program"}, "runtime"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"sort.insertionSort", "assasin/internal/telemetry/window.(*Hist).Observe"}, "telemetry"},
		{[]string{"assasin/internal/cpu.(*Core).compileBody.chainBody.func1"}, "cpu"},
		{[]string{"assasin/internal/asm.(*Builder).Build"}, "cpu"},
		{[]string{"main.(*ioPass).arrive"}, "bench"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "bench"},
		{[]string{"math.Log"}, "other"},
	} {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("foldStack(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the output must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs every workload briefly in both modes
// and checks the printed metrics against BENCHMARK.json by name and unit,
// that no operation failed, and that under 5% of the profiled host time
// falls outside the layer map.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	for _, wl := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
			b := &bench{o: options{workload: wl}, seed: 7, seconds: time.Second, sp: newSpans(), log: io.Discard}
			res, err := b.measure(trace == 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", wl, trace, m.Name, got, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.Name, got.Value)
				}
			}
			if trace == 1 && !raceEnabled {
				if other := res.Metrics["other.host_share"].Value; other >= 0.05 {
					t.Errorf("%s: %.1f%% of host time is unmapped", wl, 100*other)
				}
			}
		}
	}
}
