package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/progen"
)

// optimizeDeck is the optimize-verify mix: runnable programs with the
// paper's pre-optimization slack (progen.PaperOptOptions), small
// SPECint profiles at full scale and large ones at 0.1. Sorted by
// optimize time the ops run perl, vortex, compress, gcc, li, acad;
// compress's third card puts the median inside its share (31-54%) and
// acad's two cards put p90 inside acad's (85-100%).
var optimizeDeck = []struct {
	name   string
	scale  float64
	weight int
}{
	{"compress", 1, 3}, {"li", 1, 2}, {"perl", 0.1, 2},
	{"vortex", 0.1, 2}, {"gcc", 0.1, 2}, {"acad", 0.1, 2},
}

// emuMaxSteps bounds every emulator run; the largest program here
// executes about 1.5M instructions.
const emuMaxSteps = 200_000_000

type optimizeProgram struct {
	pre *prog.Program // after opt.CompilerOptions: the op's input
	ref emu.Result    // the pre-optimized program's emulated run
}

type optimizeState struct {
	progs  []optimizeProgram
	weight []int
}

// setupOptimize generates the programs, pre-optimizes them the way a
// traditional compiler would, and records their reference runs.
func setupOptimize(c config) (*optimizeState, error) {
	st := &optimizeState{}
	for i, e := range optimizeDeck {
		prof, ok := progen.ProfileByName(e.name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", e.name)
		}
		p := progen.Generate(prof.Scale(e.scale*c.scale), progen.PaperOptOptions(subSeed(c.seed, i)))
		pre, _, err := opt.Optimize(p, compilerOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: compiler pre-optimization: %w", e.name, err)
		}
		ref, err := emu.Run(pre.Clone(), emuMaxSteps)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", e.name, err)
		}
		st.progs = append(st.progs, optimizeProgram{pre, ref})
		st.weight = append(st.weight, e.weight)
	}
	return st, nil
}

func compilerOptions() opt.Options {
	o := opt.CompilerOptions()
	o.Analysis.Parallelism = workers
	return o
}

func defaultOptions() opt.Options {
	o := opt.DefaultOptions()
	o.Analysis.Parallelism = workers
	return o
}

// optimizeSamples are the measurements of one phase.
type optimizeSamples struct {
	optimize, verify   []float64 // ms
	busy               time.Duration
	stepsBefore, after int64 // emulated instructions, summed over ops
	sizeBefore, size   int   // static instructions, summed over ops
}

// runPhase runs whole decks until seconds have passed.
func (st *optimizeState) runPhase(c config, r *rand.Rand, seconds float64, tr *tracer, out *outcome) *optimizeSamples {
	s := &optimizeSamples{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 0; op == 0 || time.Now().Before(deadline); {
		for _, pi := range deck(r, st.weight) {
			st.op(c, op, pi, tr, s, out)
			op++
		}
	}
	return s
}

// op optimizes one program (the timed op), then emulates the result and
// compares its output with the recorded pre-optimization run.
func (st *optimizeState) op(c config, op, pi int, tr *tracer, s *optimizeSamples, out *outcome) {
	pr := &st.progs[pi]
	out.attempted++
	var m0, m1 runtime.MemStats
	root := tr.begin("bench.op", noSpan, op)
	t0 := time.Now()
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.begin("opt.Optimize", root, op)
	optimized, rep, err := opt.Optimize(pr.pre, defaultOptions())
	tr.end(sp)
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	lat := time.Since(t0)
	tr.end(root)
	if err != nil {
		out.failed++
		return
	}
	s.optimize = append(s.optimize, ms(lat))
	s.busy += lat

	root = tr.begin("bench.verify", noSpan, op)
	t1 := time.Now()
	sp = tr.begin("emu.Run", root, op)
	res, err := emu.Run(optimized.Clone(), emuMaxSteps)
	tr.end(sp)
	s.verify = append(s.verify, ms(time.Since(t1)))
	tr.end(root)
	if c.fault == faultEmu && op == 0 && len(res.Output) > 0 {
		res.Output[0]++
	}
	if err != nil || !emu.SameOutput(res, pr.ref) {
		out.failed++
		return
	}
	s.stepsBefore += pr.ref.Steps
	s.after += res.Steps
	s.sizeBefore += rep.InstructionsBefore
	s.size += rep.InstructionsAfter
	if tr != nil {
		tr.record("opt.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		tr.record("opt.rounds", float64(rep.Rounds))
		tr.record("opt.reanalyses", float64(rep.Reanalyses))
		tr.record("opt.dead_instructions", float64(rep.DeadInstructions))
		tr.record("opt.spills_removed", float64(rep.SpillsRemoved))
		tr.record("opt.saverestore_rewrites", float64(rep.SaveRestoreRewrites))
		st.probe(op, pr.pre, optimized, tr)
	}
}

// probe re-runs, in a traced phase, the analysis work an Optimize call
// is built from: the from-scratch analysis of its input, one warm-start
// re-analysis from that input to the optimized program, and the
// per-routine liveness solve the dead-code pass pays each round.
func (st *optimizeState) probe(op int, in, optimized *prog.Program, tr *tracer) {
	sp := tr.begin("core.Analyze", noSpan, op)
	a, err := core.Analyze(in, core.WithParallelism(workers))
	tr.end(sp)
	if err != nil {
		return
	}
	sp = tr.begin("core.Reanalyze", noSpan, op)
	inc, err := core.Reanalyze(a, optimized, core.WithParallelism(workers))
	tr.end(sp)
	if err == nil {
		tr.record("core.reanalyze_dirty", float64(inc.Incremental.DirtyRoutines))
		tr.record("core.reanalyze_reused", float64(inc.Incremental.ReusedComponents))
	}
	sp = tr.begin("dataflow.RoutineLiveness", noSpan, op)
	for ri := range in.Routines {
		a.SolveRoutineLiveness(ri)
	}
	tr.end(sp)
}

func pct(before, after int64) float64 {
	return 100 * float64(before-after) / float64(before)
}

func runOptimize(c config) (*outcome, error) {
	st, setupS, err := timeSetups(setups, func() (*optimizeState, error) { return setupOptimize(c) }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	r := rand.New(rand.NewSource(int64(c.seed)))
	measure := c.seconds
	if c.traced {
		measure /= 2
	}
	s := st.runPhase(c, r, measure, nil, out)

	p50, p90 := quantile(s.optimize, 0.5), quantile(s.optimize, 0.9)
	verifyP50 := quantile(s.verify, 0.5)
	dyn := pct(s.stepsBefore, s.after)
	static := pct(int64(s.sizeBefore), int64(s.size))
	rss := peakRSSMB()
	out.e2e["setup_s"] = setupS
	out.e2e["op_ms_p50"] = p50
	out.e2e["op_ms_tail"] = p90
	out.e2e["throughput"] = float64(len(s.optimize)) / s.busy.Seconds()
	out.e2e["peak_rss_mb"] = rss
	n := len(s.optimize)
	out.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setups))
	out.add("optimize_ms_p50", p50, "ms", beyond(n, 0.5))
	out.add("optimize_ms_p90", p90, "ms", beyond(n, 0.9))
	out.add("optimize_ops_per_s", out.e2e["throughput"], "1/s", "")
	out.add("opt_dyn_reduction_pct", dyn, "%", fmt.Sprintf("%d -> %d emulated steps", s.stepsBefore, s.after))
	out.add("opt_static_reduction_pct", static, "%", fmt.Sprintf("%d -> %d instructions", s.sizeBefore, s.size))
	out.add("peak_rss_mb", rss, "MB", "")
	out.add("verify_ms_p50", verifyP50, "ms", beyond(len(s.verify), 0.5))

	if c.traced {
		tr := newTracer()
		ts := st.runPhase(c, r, measure, tr, out)
		for _, name := range []string{"opt.alloc_mb_per_op", "opt.rounds", "opt.reanalyses",
			"opt.dead_instructions", "opt.spills_removed", "opt.saverestore_rewrites",
			"core.reanalyze_dirty", "core.reanalyze_reused"} {
			out.layer[name] = tr.meanValue(name)
		}
		out.layer["core.analyze_ms"] = tr.meanMs("core.Analyze")
		out.layer["core.reanalyze_ms"] = tr.meanMs("core.Reanalyze")
		out.layer["dataflow.routine_liveness_ms"] = tr.meanMs("dataflow.RoutineLiveness")
		out.layer["emu.verify_ms"] = tr.meanMs("emu.Run")
		out.layer["opt.dyn_reduction_pct"] = pct(ts.stepsBefore, ts.after)
		out.layer["opt.static_reduction_pct"] = pct(int64(ts.sizeBefore), int64(ts.size))
		out.layer["trace_overhead_pct"] = overheadPct(s.optimize, ts.optimize)
		tr.addSelfTimes(out.layer, len(ts.optimize))
		out.add("traced_optimize_ms_p50", quantile(ts.optimize, 0.5), "ms", beyond(len(ts.optimize), 0.5))
	}
	return out, nil
}
