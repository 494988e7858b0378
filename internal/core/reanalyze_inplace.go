package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/isa"
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
// its rebuilt PSG range landing on the same nodes and edges. The dirty
// rebuild therefore appends into the slab range it replaces through a
// capacity-clamped view, keeps a copy of the old range, and verifies
// the new structure against it — on any mismatch the range is restored
// and the whole call falls back to the copying Reanalyze (prev is
// still pristine at that point, since every other precondition was
// checked before the rebuild). Arrays an analysis may share with an
// older analysis in a re-analysis chain — entry/exit index lists,
// caller-edge registrations, CSR adjacency, return-site links, frame
// facts, the scheduler shape, the call graph's derived arrays — are
// never written at all: the structure proofs make them describe the
// patched program verbatim.

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
	var dirty []int
	var dirtyHashes []uint64
	for ri, r := range patched.Routines {
		if r == oldProg.Routines[ri] {
			clean[ri] = true
			continue
		}
		h := r.Hash()
		if h == prevHashes[ri] {
			clean[ri] = true
			continue
		}
		dirty = append(dirty, ri)
		dirtyHashes = append(dirtyHashes, h)
	}
	asp.Arg("dirty_routines", int64(len(dirty)))
	if err := validatePatched(patched, prev, dirty); err != nil {
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
	for i := range work {
		r := patched.Routines[work[i].ri]
		scratch := frameScratch{
			deltas: make([]int64, len(r.Code)),
			flags:  make([]uint8, len(r.Code)),
			work:   make([]int32, 0, len(r.Code)),
		}
		var fi frameInfo
		frameScan(&fi, r, &scratch)
		f := FrameFact{Clean: fi.clean, HasIndirect: fi.hasIndirect}
		if fi.clean {
			f.LocalSaved = savedRestored(r, &fi)
		}
		if f != prevFrames[work[i].ri] {
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

	// ---- slab rebuild (first writes; restorable until verified) --------
	// Each dirty routine is rebuilt by appending into its own slab range
	// through a capacity-clamped view — the length check below catches a
	// range that would grow (the append then reallocates away from the
	// slab, leaving at most the backed-up range dirty) or shrink. The
	// backup makes any bail restorable: the copying fallback then sees a
	// structurally pristine prev. Ranges of routines verified before a
	// later bail keep the rebuilt structure — identical by the same
	// check — and zeroed converged values, which no fallback path reads
	// (dirty ranges are rebuilt, re-labeled and re-solved in any mode).
	start = time.Now()
	nodeStart, edgeStart := g.routineBounds()
	en := make([][]int, nNew)
	ex := make([][]int, nNew)
	var bakN []Node
	var bakE []Edge
	var scratch buildScratch
	tasks := make([]labelTask, 0, len(work))
	for k := range work {
		ri := work[k].ri
		nlo, nhi := int(nodeStart[ri]), int(nodeStart[ri+1])
		elo, ehi := int(edgeStart[ri]), int(edgeStart[ri+1])
		bakN = append(bakN[:0], g.Nodes[nlo:nhi]...)
		bakE = append(bakE[:0], g.Edges[elo:ehi]...)
		// newNode/addEdge extend into spare capacity assuming zeroed
		// memory; these windows hold the old routine's nodes and edges,
		// so clear them (the fallback path restores from bakN/bakE).
		clear(g.Nodes[nlo:nhi])
		clear(g.Edges[elo:ehi])
		a.Graphs[ri] = work[k].graph
		g.Graphs[ri] = work[k].graph
		en[ri], ex[ri] = nil, nil
		v := &PSG{
			Prog:   patched,
			Graphs: a.Graphs,
			Nodes:  g.Nodes[:nlo:nhi],
			Edges:  g.Edges[:elo:ehi],
			// Fresh entry/exit lists and nil CallerEdges: the slab-owner's
			// lists may be shared across the chain and the structure proof
			// keeps them valid, so buildRoutine must not append to them
			// (CallerEdges registration is suppressed by the nil).
			EntryNodes: en,
			ExitNodes:  ex,
		}
		tasks = append(tasks, labelTask{})
		v.buildRoutine(&tasks[len(tasks)-1], ri, conf, &scratch)
		if len(v.Nodes) != nhi || len(v.Edges) != ehi ||
			!inPlaceShapeSame(g, bakN, bakE, nlo, elo, work[k].oldGraph, work[k].graph, ex[ri]) {
			copy(g.Nodes[nlo:nhi], bakN)
			copy(g.Edges[elo:ehi], bakE)
			for j := 0; j <= k; j++ {
				a.Graphs[work[j].ri] = work[j].oldGraph
				g.Graphs[work[j].ri] = work[j].oldGraph
			}
			releaseTasks(tasks)
			return nil, false, nil
		}
	}

	// ---- commit --------------------------------------------------------
	// From here on prev is gone; every structure now describes patched.
	cpu := time.Since(start)
	flowEdges := conf.Metrics.Counter("label/flow_edges")
	defuseLinks := conf.Metrics.Counter("label/defuse_links")
	chainSteps := conf.Metrics.Counter("label/chain_steps")
	denseFallbacks := conf.Metrics.Counter("label/dense_fallbacks")
	ltasks := tasks
	cpu += par.ForEachSpan(conf.Tracer, "label", len(ltasks), workers, func(i int) {
		st := ltasks[i].label(g, conf)
		flowEdges.Add(uint64(len(ltasks[i].refs)))
		defuseLinks.Add(st.links)
		chainSteps.Add(st.steps)
		denseFallbacks.Add(st.dense)
	})
	releaseTasks(ltasks)
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
			for _, ri := range cg.Members(c) {
				a.Summaries[ri] = a.collectSummary(ri)
			}
		}
	}
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

// inPlaceShapeSame verifies a rebuilt slab range against the backup of
// the range it replaced: same node and edge structure (IDs hold by
// construction — the rebuild appended at the old offsets), and the same
// ret-vs-halt terminator split per real exit, which the shared
// return-site links and phase-2 seeds depend on. exits lists the
// rebuilt routine's real exit node IDs.
func inPlaceShapeSame(g *PSG, bakN []Node, bakE []Edge, nlo, elo int, oldGraph, newGraph *cfg.Graph, exits []int) bool {
	for i := range bakN {
		n, p := &g.Nodes[nlo+i], &bakN[i]
		if n.Kind != p.Kind || n.Block != p.Block || n.EntryIdx != p.EntryIdx ||
			n.CallTarget != p.CallTarget || n.CallEntry != p.CallEntry ||
			n.Unknown != p.Unknown {
			return false
		}
	}
	for i := range bakE {
		e, p := &g.Edges[elo+i], &bakE[i]
		if e.Kind != p.Kind || e.Src != p.Src || e.Dst != p.Dst {
			return false
		}
	}
	for _, x := range exits {
		n := &g.Nodes[x]
		old := &bakN[x-nlo]
		newRet := newGraph.Terminator(newGraph.Blocks[n.Block]).Op == isa.OpRet
		oldRet := oldGraph.Terminator(oldGraph.Blocks[old.Block]).Op == isa.OpRet
		if newRet != oldRet {
			return false
		}
	}
	return true
}
