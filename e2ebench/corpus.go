package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/baseline"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/snapshot"
	"repro/internal/sxe"
)

// corpusDeck is the analyze-corpus mix: ten Table 2 profiles at scale
// 0.1, from 1.6k (compress) to 232k (acad) instructions. Every deck of
// 22 ops holds each profile its weight's times. vc and acad get a third
// card so that the median op falls inside vc's share (45-59% of the
// time-sorted ops) and p90 inside acad's (86-100%), never on the edge
// between two profiles.
var corpusDeck = []struct {
	name   string
	weight int
}{
	{"compress", 2}, {"li", 2}, {"perl", 2}, {"vortex", 2}, {"gcc", 2},
	{"vc", 3}, {"maxeda", 2}, {"sqlservr", 2}, {"winword", 2}, {"acad", 3},
}

const (
	corpusScale  = 0.1
	restoreEvery = 10 // every 10th op also restores a snapshot
)

type corpusProgram struct {
	image  []byte // the SXE image an op decodes
	instrs int
	ref    []core.RoutineSummary // validated reference summaries
}

type corpusState struct {
	progs  []corpusProgram
	weight []int
	// badRefs counts references that failed validation at set-up.
	badRefs int
}

// setupCorpus generates the programs and validates each reference
// analysis against the supergraph baseline and the PSG invariants.
func setupCorpus(c config) (*corpusState, error) {
	st := &corpusState{}
	for i, e := range corpusDeck {
		prof, ok := progen.ProfileByName(e.name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", e.name)
		}
		p := progen.Generate(prof.Scale(corpusScale*c.scale), progen.DefaultOptions(subSeed(c.seed, i)))
		image, err := sxe.Encode(p)
		if err != nil {
			return nil, fmt.Errorf("%s: encode: %w", e.name, err)
		}
		a, err := core.Analyze(p, core.WithParallelism(workers))
		if err != nil {
			return nil, fmt.Errorf("%s: reference analysis: %w", e.name, err)
		}
		if len(check.Invariants(a)) > 0 || !withinBaseline(a) {
			st.badRefs++
		}
		st.progs = append(st.progs, corpusProgram{image, p.NumInstructions(), a.Summaries})
		st.weight = append(st.weight, e.weight)
	}
	return st, nil
}

// withinBaseline reports whether every live-at-entry and live-at-exit
// set of a is contained in the supergraph baseline's, which merges
// every calling context the PSG analysis keeps apart.
func withinBaseline(a *core.Analysis) bool {
	var opts []baseline.Option
	if !a.Config.LinkIndirectCalls {
		opts = append(opts, baseline.WithOpenWorld())
	}
	_, b := baseline.Analyze(a.Prog, opts...)
	for ri := range a.Prog.Routines {
		s := a.Summary(ri)
		for e, live := range s.LiveAtEntry {
			if !live.SubsetOf(b.LiveAtEntry(ri, e)) {
				return false
			}
		}
		for x, live := range s.LiveAtExit {
			if !live.SubsetOf(b.LiveAtBlockOut(ri, s.ExitBlocks[x])) {
				return false
			}
		}
	}
	return true
}

// sameSummaries reports whether two analyses published identical
// routine summaries.
func sameSummaries(a, b []core.RoutineSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.SavedRestored != y.SavedRestored ||
			!slices.Equal(x.CallUsed, y.CallUsed) ||
			!slices.Equal(x.CallDefined, y.CallDefined) ||
			!slices.Equal(x.CallKilled, y.CallKilled) ||
			!slices.Equal(x.LiveAtEntry, y.LiveAtEntry) ||
			!slices.Equal(x.LiveAtExit, y.LiveAtExit) ||
			!slices.Equal(x.ExitBlocks, y.ExitBlocks) {
			return false
		}
	}
	return true
}

// corpusUnit is the op schedule of one measuring unit: restoreEvery-1
// shuffled decks of plain ops and one deck of restoring ops, with every
// restoreEvery-th op taken from the restoring deck. A unit therefore
// holds restoreEvery complete decks of ops and one of restores.
func corpusUnit(r *rand.Rand, weight []int) (progs []int, restore []bool) {
	var plain []int
	for k := 0; k < restoreEvery-1; k++ {
		plain = append(plain, deck(r, weight)...)
	}
	for g, pi := range deck(r, weight) {
		for _, q := range plain[g*(restoreEvery-1) : (g+1)*(restoreEvery-1)] {
			progs, restore = append(progs, q), append(restore, false)
		}
		progs, restore = append(progs, pi), append(restore, true)
	}
	return progs, restore
}

// corpusSamples are the measurements of one phase.
type corpusSamples struct {
	analyze, restore []float64 // ms
	instrs           int       // instructions analyzed by the timed ops
	busy             time.Duration
}

// runPhase runs whole units until seconds have passed.
func (st *corpusState) runPhase(c config, r *rand.Rand, seconds float64, tr *tracer, out *outcome) *corpusSamples {
	s := &corpusSamples{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 0; op == 0 || time.Now().Before(deadline); {
		progs, restore := corpusUnit(r, st.weight)
		for k, pi := range progs {
			st.op(c, op, pi, restore[k], tr, s, out)
			op++
		}
	}
	return s
}

// op decodes and analyzes one program (the timed op), checks the
// summaries, and on a restoring op captures, encodes, decodes and
// restores a snapshot of the result.
func (st *corpusState) op(c config, op, pi int, restore bool, tr *tracer, s *corpusSamples, out *outcome) {
	pr := &st.progs[pi]
	out.attempted++
	var m0, m1 runtime.MemStats
	root := tr.begin("bench.op", noSpan, op)
	t0 := time.Now()
	sp := tr.begin("sxe.Decode", root, op)
	p, err := sxe.Decode(pr.image)
	tr.end(sp)
	var a *core.Analysis
	if err == nil {
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		sp = tr.begin("core.Analyze", root, op)
		a, err = core.Analyze(p, core.WithParallelism(workers))
		tr.end(sp)
		if tr != nil {
			runtime.ReadMemStats(&m1)
		}
	}
	lat := time.Since(t0)
	tr.end(root)
	if err != nil {
		out.failed++
		return
	}
	s.analyze = append(s.analyze, ms(lat))
	s.instrs += pr.instrs
	s.busy += lat

	if c.fault == faultSummary && op == 0 {
		a.Summaries[0].CallUsed[0] ^= 1 << 3
	}
	if !sameSummaries(a.Summaries, pr.ref) {
		out.failed++
	}
	if tr != nil {
		tr.record("core.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		tr.record("core.allocs_per_op", float64(m1.Mallocs-m0.Mallocs))
		st.probe(op, a, tr)
	}
	if restore {
		st.restore(op, p, a, tr, s, out)
	}
}

// probe re-runs, in a traced phase, the stages of core.Analyze that
// have public entry points, and records the stages that have none from
// the analysis's own statistics.
func (st *corpusState) probe(op int, a *core.Analysis, tr *tracer) {
	sp := tr.begin("cfg.BuildAllParallel", noSpan, op)
	graphs, _ := cfg.BuildAllParallel(a.Prog, workers)
	tr.end(sp)
	sp = tr.begin("cfg.ComputeDefUBDAll", noSpan, op)
	cfg.ComputeDefUBDAll(graphs, workers)
	tr.end(sp)
	sp = tr.begin("callgraph.Build", noSpan, op)
	callgraph.Build(a.Prog, callgraph.WithIndirectPinning(a.Config.LinkIndirectCalls))
	tr.end(sp)
	as := &a.Stats
	tr.record("core.psg_build_ms", ms(as.PSGBuild))
	tr.record("core.phase1_ms", ms(as.Phase1))
	tr.record("core.phase2_ms", ms(as.Phase2))
	tr.record("core.psg_nodes", float64(as.PSGNodes))
	tr.record("core.psg_edges", float64(as.PSGEdges))
	tr.record("core.phase1_iterations", float64(as.Phase1Iterations))
	tr.record("core.phase2_iterations", float64(as.Phase2Iterations))
}

// restore captures and encodes a snapshot of a, then decodes and
// restores it (the timed restore) and checks that the restored analysis
// equals the one it was taken from.
func (st *corpusState) restore(op int, p *prog.Program, a *core.Analysis, tr *tracer, s *corpusSamples, out *outcome) {
	out.attempted++
	sp := tr.begin("snapshot.Encode", noSpan, op)
	image := snapshot.Capture(a, "").Encode()
	tr.end(sp)
	root := tr.begin("bench.restore", noSpan, op)
	t0 := time.Now()
	sp = tr.begin("snapshot.Decode", root, op)
	snap, err := snapshot.Decode(image)
	tr.end(sp)
	var ra *core.Analysis
	if err == nil {
		sp = tr.begin("snapshot.Restore", root, op)
		ra, err = snap.Restore(p, core.WithParallelism(workers))
		tr.end(sp)
	}
	lat := time.Since(t0)
	tr.end(root)
	if err != nil {
		out.failed++
		return
	}
	s.restore = append(s.restore, ms(lat))
	if !sameSummaries(ra.Summaries, a.Summaries) ||
		ra.Stats.PSGNodes != a.Stats.PSGNodes || ra.Stats.PSGEdges != a.Stats.PSGEdges {
		out.failed++
	}
}

func runCorpus(c config) (*outcome, error) {
	st, setupS, err := timeSetups(setups, func() (*corpusState, error) { return setupCorpus(c) }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	out.attempted, out.failed = st.badRefs, st.badRefs
	r := rand.New(rand.NewSource(int64(c.seed)))
	measure := c.seconds
	if c.traced {
		measure /= 2
	}
	s := st.runPhase(c, r, measure, nil, out)

	p50, p90 := quantile(s.analyze, 0.5), quantile(s.analyze, 0.9)
	restoreP50 := quantile(s.restore, 0.5)
	kips := float64(s.instrs) / 1000 / s.busy.Seconds()
	rss := peakRSSMB()
	out.e2e["setup_s"] = setupS
	out.e2e["op_ms_p50"] = p50
	out.e2e["op_ms_tail"] = p90
	out.e2e["throughput"] = float64(len(s.analyze)) / s.busy.Seconds()
	out.e2e["peak_rss_mb"] = rss
	n := len(s.analyze)
	out.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setups))
	out.add("analyze_ms_p50", p50, "ms", beyond(n, 0.5))
	out.add("analyze_ms_p90", p90, "ms", beyond(n, 0.9))
	out.add("analyze_kinstr_per_s", kips, "kinstr/s", fmt.Sprintf("%d instructions", s.instrs))
	out.add("analyze_ops_per_s", out.e2e["throughput"], "1/s", "")
	out.add("peak_rss_mb", rss, "MB", "")
	out.add("restore_ms_p50", restoreP50, "ms", beyond(len(s.restore), 0.5))

	if c.traced {
		tr := newTracer()
		ts := st.runPhase(c, r, measure, tr, out)
		for _, name := range []string{"core.psg_build_ms", "core.phase1_ms", "core.phase2_ms",
			"core.psg_nodes", "core.psg_edges", "core.phase1_iterations", "core.phase2_iterations",
			"core.alloc_mb_per_op", "core.allocs_per_op"} {
			out.layer[name] = tr.meanValue(name)
		}
		out.layer["sxe.decode_ms"] = tr.meanMs("sxe.Decode")
		out.layer["cfg.build_ms"] = tr.meanMs("cfg.BuildAllParallel")
		out.layer["cfg.defubd_ms"] = tr.meanMs("cfg.ComputeDefUBDAll")
		out.layer["callgraph.build_ms"] = tr.meanMs("callgraph.Build")
		out.layer["snapshot.encode_ms"] = tr.meanMs("snapshot.Encode")
		out.layer["snapshot.decode_ms"] = tr.meanMs("snapshot.Decode")
		out.layer["snapshot.restore_ms"] = tr.meanMs("snapshot.Restore")
		out.layer["trace_overhead_pct"] = overheadPct(s.analyze, ts.analyze)
		tr.addSelfTimes(out.layer, len(ts.analyze))
		out.add("traced_analyze_ms_p50", quantile(ts.analyze, 0.5), "ms", beyond(len(ts.analyze), 0.5))
	}
	return out, nil
}
