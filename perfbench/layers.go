package main

import "strings"

// layerRules maps the module's packages to the layers the benchmark reports.
// A rule ending in "/..." covers the package and everything below it; the
// others are exact. Every package of the module matches exactly one rule
// (TestLayerMapComplete). Packages the benchmark never calls are "tools".
var layerRules = []struct{ pkg, layer string }{
	{"assasin/internal/ssd", "ssd"},
	{"assasin/internal/core", "ssd"},
	{"assasin/internal/kernels", "kernels"},
	{"assasin/internal/aes", "kernels"},
	{"assasin/internal/gf", "kernels"},
	{"assasin/internal/cpu", "cpu"},
	{"assasin/internal/isa", "cpu"},
	{"assasin/internal/asm", "cpu"},
	{"assasin/internal/memhier", "memhier"},
	{"assasin/internal/firmware", "firmware"},
	{"assasin/internal/crossbar", "crossbar"},
	{"assasin/internal/sim", "sim"},
	{"assasin/internal/flash", "flash"},
	{"assasin/internal/ftl", "ftl"},
	{"assasin/internal/nvme", "nvme"},
	{"assasin/internal/host", "nvme"},
	{"assasin/internal/telemetry/...", "telemetry"},
	{"assasin/perfbench", "bench"},
	{"assasin", "tools"},
	{"assasin/cmd/...", "tools"},
	{"assasin/examples/...", "tools"},
	{"assasin/internal/buildinfo", "tools"},
	{"assasin/internal/experiments", "tools"},
	{"assasin/internal/obs", "tools"},
	{"assasin/internal/power", "tools"},
	{"assasin/internal/profiling", "tools"},
	{"assasin/internal/runpool", "tools"},
	{"assasin/internal/tpch", "tools"},
}

// hostLayers are the layers whose host-time share the traced run reports,
// with memhier split by receiver type. "other" holds samples no rule maps.
var hostLayers = []string{
	"ssd", "kernels", "cpu", "memhier.stream", "memhier.cache", "memhier.scratchpad",
	"firmware", "crossbar", "sim", "flash", "ftl", "nvme", "telemetry",
	"runtime", "bench", "tools", "other",
}

// ruleMatches reports whether package path pkg falls under rule.
func ruleMatches(rule, pkg string) bool {
	if base, ok := strings.CutSuffix(rule, "/..."); ok {
		return pkg == base || strings.HasPrefix(pkg, base+"/")
	}
	return pkg == rule
}

// layerOf maps a module package to its layer ("" when no rule matches).
func layerOf(pkg string) string {
	if pkg == "main" { // the benchmark binary's own package
		pkg = "assasin/perfbench"
	}
	for _, r := range layerRules {
		if ruleMatches(r.pkg, pkg) {
			return r.layer
		}
	}
	return ""
}

// memhierPart splits memhier by the receiver type of the function: the
// stream buffers, the scratchpad, and everything else (caches, the
// prefetcher, DRAM, and the System that routes accesses between them).
func memhierPart(recv string) string {
	switch recv {
	case "InStream", "OutStream", "StreamBuffer", "StreamTel":
		return "memhier.stream"
	case "Scratchpad":
		return "memhier.scratchpad"
	}
	return "memhier.cache"
}

// isRuntime reports whether a leaf frame is the Go runtime's own work: the
// scheduler, allocator, GC and memmove. Map lookups and hashing are not:
// they are container work done for the calling layer.
func isRuntime(fn string) bool {
	pkg, _ := splitFunc(fn)
	if pkg != "runtime" && !strings.HasPrefix(pkg, "internal/") {
		return false
	}
	return !strings.HasPrefix(pkg, "internal/runtime/maps") &&
		!strings.HasPrefix(fn, "runtime.map") && !strings.Contains(fn, "hash")
}

// splitFunc splits a symbol such as
// "assasin/internal/memhier.(*InStream).gather" into its package path and
// receiver type ("assasin/internal/memhier", "InStream"). Functions have an
// empty receiver; closures keep their enclosing function's receiver.
func splitFunc(name string) (pkg, recv string) {
	end := len(name)
	if i := strings.IndexAny(name, "(["); i >= 0 {
		end = i
	}
	slash := strings.LastIndex(name[:end], "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name, ""
	}
	pkg, rest := name[:slash+1+dot], name[slash+2+dot:]
	if r, ok := strings.CutPrefix(rest, "(*"); ok {
		recv, _, _ = strings.Cut(r, ")")
		return pkg, recv
	}
	if t, _, ok := strings.Cut(rest, "."); ok && t != "" && t[0] >= 'A' && t[0] <= 'Z' && !strings.HasPrefix(t, "func") {
		recv = t
	}
	return pkg, recv
}

// foldStack attributes one profile sample, given leaf-first function names,
// to a host layer. A runtime leaf (allocation, GC, memmove, scheduling)
// counts as runtime. Otherwise the innermost frame in the module decides, so
// standard-library helpers count toward the layer that called them; the
// profiler's own goroutine counts as bench.
func foldStack(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if isRuntime(frames[0]) {
		return "runtime"
	}
	for _, f := range frames {
		pkg, recv := splitFunc(f)
		if pkg == "runtime/pprof" {
			return "bench"
		}
		switch l := layerOf(pkg); l {
		case "":
		case "memhier":
			return memhierPart(recv)
		default:
			return l
		}
	}
	return "other"
}
