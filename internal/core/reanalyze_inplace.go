package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/regset"
)

// In-place (consuming) re-analysis.
//
// Reanalyze keeps prev fully intact, which forces it to copy the PSG's
// node and edge slabs even when an edit re-solves a single component:
// the new analysis needs its own converged storage, and on a large
// program the two slab copies are megabytes — a hard O(program) floor
// that dwarfs the O(edit) solving work. ReanalyzeInPlace removes that
// floor for the editor steady state, where the caller applies a patch,
// queries the result, and never touches the pre-patch analysis again:
// it updates prev's own structures — slab ranges of the edited
// routines, the summaries of the re-solved components, the body-hash
// table — and returns prev itself, re-solving the dirty condensation
// cone exactly like Reanalyze. The result is byte-identical to
// Analyze(patched); only prev is destroyed in the making.
//
// The in-place update requires everything structural to be provably
// unchanged before the first write: same routine count, every edited
// routine re-scanning to the same call edges and §3.4 frame facts, and
// its rebuilt PSG structure matching the range it replaces. The dirty
// routines are therefore built into worker-local records first
// (buildStructure) and verified against their ranges; on any mismatch
// the whole call falls back to the copying Reanalyze with prev still
// pristine. Arrays an analysis may share with an older analysis in a
// re-analysis chain — entry/exit index lists, caller-edge
// registrations, CSR adjacency, return-site links, frame facts, the
// scheduler shape, the call graph's derived arrays — are never written
// at all: the structure proofs make them describe the patched program
// verbatim.

// ReanalyzeInPlace computes the analysis of patched by updating prev in
// place, consuming it: prev must not be used again by the caller —
// on success the returned *Analysis is prev itself, rebound to patched,
// and on fallback (a structural change the in-place path cannot prove
// safe) it is a fresh analysis produced exactly like Reanalyze. Either
// way the result is byte-identical to Analyze(patched, opts...). If an
// error is returned (cancellation, invalid patch, option mismatch),
// prev is invalid and must be discarded.
//
// Use Reanalyze when older analyses must stay queryable (the daemon's
// version cache does); use ReanalyzeInPlace for an edit loop that only
// ever wants the latest analysis — it does O(edit) work where Reanalyze
// pays an O(program) slab copy, and allocates almost nothing.
//
// The same option-compatibility rule as Reanalyze applies: opts must
// agree with prev's on the result-determining fields (Config.Key), or a
// *ConfigMismatchError is returned (prev remains valid in that case).
func ReanalyzeInPlace(prev *Analysis, patched *prog.Program, opts ...Option) (*Analysis, error) {
	return ReanalyzeInPlaceContext(context.Background(), prev, patched, opts...)
}

// ReanalyzeInPlaceContext is ReanalyzeInPlace under a context, with the
// same cancellation points as ReanalyzeContext. A cancelled in-place
// re-analysis leaves prev partially updated: the error return means the
// analysis is gone, not merely the patch.
func ReanalyzeInPlaceContext(ctx context.Context, prev *Analysis, patched *prog.Program, opts ...Option) (*Analysis, error) {
	conf := NewConfig(opts...)
	conf.ctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: reanalyze: %w", err)
	}
	if got, want := conf.Key(), prev.Config.Key(); got != want {
		return nil, &ConfigMismatchError{Want: want, Got: got}
	}
	if a, done, err := reanalyzeInPlace(ctx, conf, prev, patched); done {
		return a, err
	}
	// A precondition failed before anything was written; prev is intact
	// and the copying path handles the general case.
	return ReanalyzeContext(ctx, prev, patched, opts...)
}

// reanalyzeInPlace attempts the strict in-place fast path. done=false
// means a precondition failed with prev untouched and the caller should
// fall back; done=true means the attempt ran to a result (or to an
// error that consumed prev).
func reanalyzeInPlace(ctx context.Context, conf Config, prev *Analysis, patched *prog.Program) (result *Analysis, done bool, err error) {
	a := prev
	g := prev.PSG
	nNew, nOld := len(patched.Routines), len(prev.Prog.Routines)
	if nNew != nOld || g == nil || prev.schedShape == nil || prev.callGraph == nil ||
		g.retStart == nil || len(g.FrameFacts()) != nNew {
		// Routine count moved, or prev was restored from a snapshot (no
		// retained scheduler shape / return-site links to reuse).
		return nil, false, nil
	}
	workers := conf.Workers()
	var wlGets0, wlNews0, lbGets0, lbNews0, duGets0, duNews0 uint64
	if conf.Metrics != nil {
		wlGets0, wlNews0 = wlPool.Stats()
		lbGets0, lbNews0 = labelPool.Stats()
		duGets0, duNews0 = defusePool.Stats()
	}
	th := conf.Tracer.MainThread()
	asp := th.Begin("reanalyze inplace").
		Arg("routines", int64(nNew)).
		Arg("workers", int64(workers))
	defer asp.End()

	// ---- diff (pure) ---------------------------------------------------
	oldProg := prev.Prog
	prevHashes := prev.BodyHashes()
	clean := make([]bool, nNew)
	hashes := make([]uint64, nNew)
	par.ForEach(nNew, workers, func(ri int) {
		if r := patched.Routines[ri]; r != oldProg.Routines[ri] {
			hashes[ri] = r.Hash()
			clean[ri] = hashes[ri] == prevHashes[ri]
		} else {
			clean[ri] = true
		}
	})
	var dirty []int
	var dirtyHashes []uint64
	for ri, c := range clean {
		if !c {
			dirty = append(dirty, ri)
			dirtyHashes = append(dirtyHashes, hashes[ri])
		}
	}
	asp.Arg("dirty_routines", int64(len(dirty)))
	if err := validatePatched(patched, prev, dirty, workers); err != nil {
		return nil, true, err
	}
	if err := ctx.Err(); err != nil {
		return nil, true, fmt.Errorf("core: reanalyze: %w", err)
	}

	// ---- structural preconditions (pure) -------------------------------
	cg := prev.callGraph
	if !cg.ReusableFor(patched, clean, conf.LinkIndirectCalls) {
		return nil, false, nil
	}

	// Per-dirty-routine artifacts. Nothing below writes into prev until
	// the slab rebuild: the new CFGs live in `work`, and the frame facts
	// are only compared.
	type dirtyRoutine struct {
		ri       int
		graph    *cfg.Graph
		oldGraph *cfg.Graph
	}
	work := make([]dirtyRoutine, len(dirty))
	start := time.Now()
	cfgCPU := par.ForEachSpan(conf.Tracer, "cfg", len(dirty), workers, func(i int) {
		work[i] = dirtyRoutine{ri: dirty[i], graph: cfg.Build(patched, dirty[i]), oldGraph: prev.Graphs[dirty[i]]}
	})
	cfgWall := time.Since(start)
	start = time.Now()
	initCPU := par.ForEachSpan(conf.Tracer, "defubd", len(dirty), workers, func(i int) {
		cfg.ComputeDefUBD(work[i].graph)
	})
	initWall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, true, fmt.Errorf("core: reanalyze: %w", err)
	}

	// §3.4 frame facts must be bit-identical: the previous frames and
	// SavedRestored arrays may be shared with an older analysis in the
	// chain, so the in-place path never rewrites them — it proves it
	// does not have to. A moved set falls back.
	prevFrames := g.FrameFacts()
	for i, f := range scanFrames(patched, dirty, workers) {
		if f != prevFrames[dirty[i]] {
			return nil, false, nil
		}
	}

	// Structural count deltas, captured while the old graphs are alive.
	instrDelta, blockDelta, arcDelta := 0, 0, 0
	var bytesDelta int64
	for i := range work {
		ri := work[i].ri
		instrDelta += len(patched.Routines[ri].Code) - len(oldProg.Routines[ri].Code)
		blockDelta += len(work[i].graph.Blocks) - len(work[i].oldGraph.Blocks)
		arcDelta += work[i].graph.NumArcs() - work[i].oldGraph.NumArcs()
		bytesDelta += int64(work[i].graph.MemoryFootprint()) - int64(work[i].oldGraph.MemoryFootprint())
	}

	// ---- structure (pure until every record is verified) ---------------
	// The dirty routines are built on the pool into worker-local records
	// and compared against the ranges they would replace; only when all
	// match are they written over prev's slab. A mismatch returns before
	// the first write, so the copying fallback sees a pristine prev.
	start = time.Now()
	nodeStart, edgeStart := g.routineBounds()
	graphs := make([]*cfg.Graph, len(work))
	for k := range work {
		graphs[k] = work[k].graph
	}
	sp, cpu := buildStructure(graphs, conf)
	for k := range work {
		ri := work[k].ri
		nlo, nhi := nodeStart[ri], nodeStart[ri+1]
		elo, ehi := edgeStart[ri], edgeStart[ri+1]
		if !sp.recs[k].sameShape(g.Nodes[nlo:nhi], g.Edges[elo:ehi], int(nlo), work[k].oldGraph, work[k].graph) {
			sp.releaseBuilders()
			releaseTasks(sp.tasks)
			return nil, false, nil
		}
	}

	// ---- commit --------------------------------------------------------
	// From here on prev is gone; every structure now describes patched.
	// Arrays an analysis may share with an older one in a re-analysis
	// chain — entry/exit index lists, caller-edge registrations, CSR
	// adjacency, return-site links — are never written: the records just
	// proved them valid verbatim.
	commit := time.Now()
	par.ForEach(len(work), workers, func(k int) {
		ri := work[k].ri
		sp.recs[k].writeAt(g.Nodes, g.Edges, int(nodeStart[ri]), int(edgeStart[ri]))
	})
	for k := range work {
		ri := work[k].ri
		sp.placed(k, int(nodeStart[ri]), int(edgeStart[ri]))
		a.Graphs[ri] = work[k].graph
		g.Graphs[ri] = work[k].graph
	}
	sp.releaseBuilders()
	cpu += time.Since(commit)
	cpu += g.labelTasks(sp.tasks, conf)
	psgWall := time.Since(start)
	a.Prog = patched
	g.Prog = patched
	cg.Adopt(patched, conf.Tracer, conf.Metrics)
	for i, ri := range dirty {
		a.hashes[ri] = dirtyHashes[i]
	}
	a.Config = conf
	old := &a.Stats
	a.Stats = Stats{
		Parallelism:   workers,
		CFGBuild:      cfgWall,
		CFGBuildCPU:   cfgCPU,
		Init:          initWall,
		InitCPU:       initCPU,
		PSGBuild:      psgWall,
		PSGBuildCPU:   cpu,
		Routines:      nNew,
		Instructions:  old.Instructions + instrDelta,
		BasicBlocks:   old.BasicBlocks + blockDelta,
		CFGArcs:       old.CFGArcs + arcDelta,
		PSGNodes:      old.PSGNodes,
		PSGEdges:      old.PSGEdges,
		GraphBytes:    uint64(int64(old.GraphBytes) + bytesDelta),
		SCCComponents: cg.NumComponents(),
	}
	if err := ctx.Err(); err != nil {
		return nil, true, fmt.Errorf("core: reanalyze: %w", err)
	}

	// ---- phases --------------------------------------------------------
	// Snapshot mode: the drivers capture each component's previous
	// return-node liveness before overwriting it, standing in for the
	// second slab the copying path compares against.
	nComp := cg.NumComponents()
	sched := newPhaseSchedFromShape(g, cg, conf, prev.schedShape)
	sched.retSnap = make([][]regset.Set, nComp)
	a.schedShape = sched.shape()

	dirtyComp := make([]bool, nComp)
	for _, ri := range dirty {
		dirtyComp[cg.Component(ri)] = true
	}
	// No SavedRestored seeding: the frame facts were proven identical.
	// The address-taken set is identical too (ReusableFor checks the
	// flags), so the closed-world aggregate only moves if an edited
	// routine is itself address-taken — its summary feeds every
	// indirect call label.
	aggChanged := false
	if conf.LinkIndirectCalls {
		for _, ri := range dirty {
			if patched.Routines[ri].AddressTaken {
				aggChanged = true
				break
			}
		}
		if aggChanged {
			for ri := 0; ri < nNew; ri++ {
				if cg.HasIndirectCall(ri) {
					dirtyComp[cg.Component(ri)] = true
				}
			}
		}
	}

	start = time.Now()
	resolved1 := make([]bool, nComp)
	a.Stats.Phase1Waves, a.Stats.Phase1Iterations, a.Stats.Phase1CPU =
		a.runIncremental1(a, sched, dirtyComp, resolved1)
	a.Stats.Phase1 = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, true, fmt.Errorf("core: reanalyze: %w", err)
	}

	// The return-site links are shared and still valid: the structure,
	// the ret-vs-halt split and the address-taken set are all unchanged,
	// so linkReturnSites is skipped outright. The dirty routines' former
	// and current callees coincide (same call edges), collapsing the
	// copying path's two callee loops into one.
	start = time.Now()
	dirty2 := make([]bool, nComp)
	copy(dirty2, resolved1)
	for _, ri := range dirty {
		for _, t := range cg.Callees(ri) {
			dirty2[cg.Component(t)] = true
		}
	}
	if conf.LinkIndirectCalls {
		indirectRets := aggChanged
		if !indirectRets {
			for _, ri := range dirty {
				if cg.HasIndirectCall(ri) {
					indirectRets = true
					break
				}
			}
		}
		if indirectRets {
			for _, ri := range cg.AddressTaken() {
				dirty2[cg.Component(ri)] = true
			}
		}
	}
	resolved2 := make([]bool, nComp)
	a.Stats.Phase2Waves, a.Stats.Phase2Iterations, a.Stats.Phase2CPU =
		a.runIncremental2(a, sched, clean, nil, dirty2, resolved2)
	a.Stats.Phase2 = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, true, fmt.Errorf("core: reanalyze: %w", err)
	}

	// ---- finish --------------------------------------------------------
	// Summaries of unresolved components are already correct in place;
	// only re-solved members are re-read from the converged slab.
	inc := &IncrementalStats{DirtyRoutines: len(dirty)}
	for c := 0; c < nComp; c++ {
		if resolved1[c] {
			inc.Phase1Components++
		}
		if resolved2[c] {
			inc.Phase2Components++
		}
		if resolved1[c] || resolved2[c] {
			inc.ResolvedComponents++
		}
	}
	a.recollectSummaries(cg, resolved1, resolved2, nNew)
	inc.ReusedComponents = nComp - inc.ResolvedComponents
	a.Incremental = inc
	a.livOnce = make([]sync.Once, nNew)
	a.liv = make([]*dataflow.Liveness, nNew)
	a.indOnce = sync.Once{}
	asp.Arg("resolved_components", int64(inc.ResolvedComponents)).
		Arg("reused_components", int64(inc.ReusedComponents))
	a.publishMetrics(wlGets0, wlNews0, lbGets0, lbNews0, duGets0, duNews0)
	return a, true, nil
}
