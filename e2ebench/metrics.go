package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints. They are generic
// so that each workload reports all of them; the report lines name
// what each stands for on the workload (main.go, BENCHMARK.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"throughput", "1/s"},
	{"peak_rss_mb", "MB"},
}

// layers are the repository modules whose self time a traced run
// reports; "bench" is the benchmark's own code between layer calls.
var layers = []string{"bench", "sxe", "cfg", "callgraph", "core", "dataflow",
	"snapshot", "opt", "api", "serve", "emu"}

// perLayer are the metrics every traced run prints.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// analyze-corpus
		{"sxe.decode_ms", "ms"},
		{"cfg.build_ms", "ms"},
		{"cfg.defubd_ms", "ms"},
		{"callgraph.build_ms", "ms"},
		{"core.psg_build_ms", "ms"},
		{"core.phase1_ms", "ms"},
		{"core.phase2_ms", "ms"},
		{"core.psg_nodes", "count"},
		{"core.psg_edges", "count"},
		{"core.phase1_iterations", "count"},
		{"core.phase2_iterations", "count"},
		{"core.alloc_mb_per_op", "MB"},
		{"core.allocs_per_op", "count"},
		{"snapshot.encode_ms", "ms"},
		{"snapshot.decode_ms", "ms"},
		{"snapshot.restore_ms", "ms"},
		// optimize-verify
		{"core.analyze_ms", "ms"},
		{"core.reanalyze_ms", "ms"},
		{"core.reanalyze_dirty", "count"},
		{"core.reanalyze_reused", "count"},
		{"dataflow.routine_liveness_ms", "ms"},
		{"opt.rounds", "count"},
		{"opt.reanalyses", "count"},
		{"opt.dead_instructions", "count"},
		{"opt.spills_removed", "count"},
		{"opt.saverestore_rewrites", "count"},
		{"opt.alloc_mb_per_op", "MB"},
		{"opt.dyn_reduction_pct", "%"},
		{"opt.static_reduction_pct", "%"},
		{"emu.verify_ms", "ms"},
		// serve-mixed
		{"serve.summary_ms_p50", "ms"},
		{"serve.liveness_ms_p50", "ms"},
		{"serve.callsite_ms_p50", "ms"},
		{"serve.batch_ms_p50", "ms"},
		{"serve.patch_ms_p50", "ms"},
		{"api.summary_render_ms", "ms"},
		{"api.doc_render_ms", "ms"},
		{"core.patch_reanalyze_ms", "ms"},
		{"serve.read_bytes", "bytes"},
		{"serve.write_bytes", "bytes"},
		{"serve.analysis_cache_hit_ratio", "ratio"},
		{"serve.program_cache_evictions", "count"},
		{"serve.gen_late_ms_p99", "ms"},
		// every workload
		{"trace_overhead_pct", "%"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ms", "ms/op"})
	}
	return defs
}()

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond describes a percentile's sample support for the report.
func beyond(n int, q float64) string {
	return fmt.Sprintf("n=%d, %d beyond", n, int(float64(n)*(1-q)))
}

// deck returns a seeded shuffle holding index i weights[i] times. The
// workloads draw their inputs deck by deck, so every complete deck has
// exactly the intended mix and a run's medians do not hinge on how a
// random draw happened to fall.
func deck(r *rand.Rand, weights []int) []int {
	var d []int
	for i, w := range weights {
		for k := 0; k < w; k++ {
			d = append(d, i)
		}
	}
	r.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// subSeed derives the seed of input i from the run's seed.
func subSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	return z
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// timeSetups runs setup n times and returns the last state and the
// median set-up time in seconds. release, when non-nil, frees each
// state but the last.
func timeSetups[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(st)
		}
		// Each set-up starts from a collected heap, so the garbage of
		// the earlier ones neither slows it nor raises peak_rss_mb.
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		st = s
	}
	return st, quantile(secs, 0.5), nil
}
