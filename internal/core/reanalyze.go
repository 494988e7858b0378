package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/regset"
)

// Incremental re-analysis (edit → converged analysis without paying for
// the whole program again).
//
// Reanalyze exploits the structure the from-scratch pipeline already
// has: every PSG edge is intraprocedural, cross-routine information
// moves only through entry-summary broadcasts (phase 1) and return-site
// links (phase 2), and each SCC component of the call graph is a
// self-contained fixed-point problem once the components it depends on
// have converged. A component solved from cold against converged inputs
// lands on the same unique fixed point every time (DESIGN.md §6), so an
// unedited component whose inputs did not change may keep its previous
// converged sets verbatim, and an edited or affected component can be
// re-solved in isolation against a mixture of reused and recomputed
// neighbours — the result is byte-identical to Analyze on the patched
// program.
//
// The dirty set is computed per phase, over the condensation DAG:
//
//   - Phase 1 (callee → caller): the components of edited routines and
//     of routines whose §3.4 saved/restored set changed are seeds.
//     After a component is re-solved, its routines' outward entry
//     summaries are compared against the previous analysis; only when a
//     summary actually changed do the caller components become dirty —
//     the edit's cone is cut off at the first layer of callers that
//     converge to the same summaries.
//   - Phase 2 (caller → callee): every component re-solved in phase 1
//     (its node MAY-USE sets now hold phase-1 values, not liveness),
//     plus the components of the edited routines' previous and current
//     callees (their return-site link structure changed), plus — in a
//     closed world — the address-taken components when anything about
//     indirect call sites changed. The cutoff compares each re-solved
//     return node's liveness against the previous analysis and dirties
//     the callee components only on a real change.
//
// Routine identity is positional: routine ri of the patched program is
// compared by content hash (prog.Routine.Hash) against routine ri of
// the previous program. Clean routines share their CFG and call-graph
// edge scans with the previous analysis (both are read-only) and have
// their PSG slab ranges copied — converged sets, edge labels and all —
// with node and edge IDs shifted to their new offsets. The previous
// Analysis is never mutated and remains fully queryable.

// IncrementalStats records what a Reanalyze call actually did: how much
// of the previous analysis it reused and how much it re-solved. The
// daemon's spike.v2 patch endpoint surfaces these as provenance.
type IncrementalStats struct {
	// DirtyRoutines counts routines whose body hash differs from the
	// previous program (including routines the patch added).
	DirtyRoutines int

	// ResolvedComponents counts call-graph components re-solved by at
	// least one phase; ReusedComponents counts those whose converged
	// sets were carried over from the previous analysis untouched.
	// The two sum to Stats.SCCComponents.
	ResolvedComponents int
	ReusedComponents   int

	// Phase1Components and Phase2Components count the components each
	// phase re-solved (a component re-solved by phase 1 is always
	// re-solved by phase 2 as well).
	Phase1Components int
	Phase2Components int
}

// Reanalyze computes the analysis of patched, reusing the converged
// results of prev for everything an edit cannot have affected. The
// result is byte-identical — summaries, converged PSG sets, structural
// counts — to Analyze(patched, opts...); only timing and iteration
// statistics differ, and Incremental records the reuse achieved.
//
// The options must agree with prev's on the result-determining fields
// (Config.Key); otherwise a *ConfigMismatchError is returned. prev is
// not mutated and both analyses remain independently queryable.
func Reanalyze(prev *Analysis, patched *prog.Program, opts ...Option) (*Analysis, error) {
	return ReanalyzeContext(context.Background(), prev, patched, opts...)
}

// ReanalyzeContext is Reanalyze under a context, with the same
// cancellation points as AnalyzeContext.
func ReanalyzeContext(ctx context.Context, prev *Analysis, patched *prog.Program, opts ...Option) (*Analysis, error) {
	conf := NewConfig(opts...)
	conf.ctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: reanalyze: %w", err)
	}
	if got, want := conf.Key(), prev.Config.Key(); got != want {
		return nil, &ConfigMismatchError{Want: want, Got: got}
	}
	workers := conf.Workers()
	a := &Analysis{Prog: patched, Config: conf}
	a.Stats.Parallelism = workers

	var wlGets0, wlNews0, lbGets0, lbNews0, duGets0, duNews0 uint64
	if conf.Metrics != nil {
		wlGets0, wlNews0 = wlPool.Stats()
		lbGets0, lbNews0 = labelPool.Stats()
		duGets0, duNews0 = defusePool.Stats()
	}
	th := conf.Tracer.MainThread()
	asp := th.Begin("reanalyze").
		Arg("routines", int64(len(patched.Routines))).
		Arg("workers", int64(workers))
	defer asp.End()
	// Request-scoped stage spans, when a daemon request carried a trace
	// in (WithRequestSpans); same stage names as AnalyzeContext plus the
	// incremental-only "diff".
	rt, rparent := conf.ReqTrace, conf.ReqParent
	rt.Arg(rparent, "routines", int64(len(patched.Routines)))

	cancelled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: reanalyze: %w", err)
		}
		return nil
	}

	// ---- diff ----------------------------------------------------------
	// Pointer identity short-circuits hashing: a program produced by
	// prog.ShallowClone plus clone-on-edit shares every untouched
	// *Routine with prev's, so only the handful of replaced routines are
	// hashed at all. Routines that are pointer-distinct but hash-equal
	// (a rewrite landing on identical bytes, or a deep Clone) are still
	// clean. The hashes assembled here are adopted by the new analysis so
	// chained re-analyses never rescan clean bodies.
	rsp := rt.Begin(rparent, "diff")
	nNew, nOld := len(patched.Routines), len(prev.Prog.Routines)
	prevHashes := prev.BodyHashes()
	newHashes := make([]uint64, nNew)
	clean := make([]bool, nNew)
	par.ForEach(nNew, workers, func(ri int) {
		r := patched.Routines[ri]
		if ri < nOld && r == prev.Prog.Routines[ri] {
			clean[ri], newHashes[ri] = true, prevHashes[ri]
			return
		}
		newHashes[ri] = r.Hash()
		clean[ri] = ri < nOld && newHashes[ri] == prevHashes[ri]
	})
	var dirty []int
	for ri, c := range clean {
		if !c {
			dirty = append(dirty, ri)
		}
	}
	a.adoptBodyHashes(newHashes)
	asp.Arg("dirty_routines", int64(len(dirty)))
	rt.Arg(rsp, "dirty_routines", int64(len(dirty)))
	rt.End(rsp)

	if err := validatePatched(patched, prev, dirty, workers); err != nil {
		return nil, err
	}
	if err := cancelled(); err != nil {
		return nil, err
	}

	// ---- per-routine artifacts: CFGs and DEF/UBD -----------------------
	start := time.Now()
	rsp = rt.Begin(rparent, "cfg build")
	a.Graphs = make([]*cfg.Graph, nNew)
	for ri := range patched.Routines {
		if clean[ri] {
			a.Graphs[ri] = prev.Graphs[ri]
		}
	}
	a.Stats.CFGBuildCPU = par.ForEachSpan(conf.Tracer, "cfg", len(dirty), workers, func(i int) {
		a.Graphs[dirty[i]] = cfg.Build(patched, dirty[i])
	})
	a.Stats.CFGBuild = time.Since(start)
	rt.End(rsp)

	start = time.Now()
	rsp = rt.Begin(rparent, "init")
	a.Stats.InitCPU = par.ForEachSpan(conf.Tracer, "defubd", len(dirty), workers, func(i int) {
		cfg.ComputeDefUBD(a.Graphs[dirty[i]])
	})
	a.Stats.Init = time.Since(start)
	rt.End(rsp)
	if err := cancelled(); err != nil {
		return nil, err
	}

	// ---- call graph ----------------------------------------------------
	start = time.Now()
	rsp = rt.Begin(rparent, "callgraph build")
	cg := callgraph.BuildIncremental(patched, prev.CallGraph(), clean,
		callgraph.WithIndirectPinning(conf.LinkIndirectCalls),
		callgraph.WithObs(conf.Tracer, conf.Metrics))
	a.callGraph = cg
	a.Stats.CallGraphBuild = time.Since(start)
	rt.End(rsp)
	a.Stats.SCCComponents = cg.NumComponents()
	prevCG := prev.CallGraph()

	// ---- PSG assembly --------------------------------------------------
	start = time.Now()
	rsp = rt.Begin(rparent, "psg build")
	dirtyGraphs := make([]*cfg.Graph, len(dirty))
	for i, ri := range dirty {
		dirtyGraphs[i] = a.Graphs[ri]
	}
	sp, cpu := buildStructure(dirtyGraphs, conf)
	placeStart := time.Now()
	nodeDelta, shapeSame, linksShared := a.assemblePSG(prev, clean, dirty, sp, conf)
	cpu += time.Since(placeStart)
	cpu += a.PSG.labelTasks(sp.tasks, conf)
	srCPU, srShared := a.incrementalSavedRestored(prev, cg, clean, dirty)
	cpu += srCPU
	a.Stats.PSGBuildCPU = cpu
	a.Stats.PSGBuild = time.Since(start)
	rt.End(rsp)
	if err := cancelled(); err != nil {
		return nil, err
	}

	// Seed dirtiness: edited routines and routines whose §3.4 set moved
	// (their outward-facing entry summaries are filtered differently now,
	// even if the body is unchanged).
	g := a.PSG
	nComp := cg.NumComponents()
	dirtyComp := make([]bool, nComp)
	for _, ri := range dirty {
		dirtyComp[cg.Component(ri)] = true
	}
	if !srShared {
		// srShared means the whole SavedRestored slice is prev's — no
		// per-routine comparison can fire.
		for ri := 0; ri < nNew && ri < nOld; ri++ {
			if g.SavedRestored[ri] != prev.PSG.SavedRestored[ri] {
				dirtyComp[cg.Component(ri)] = true
			}
		}
	}

	// In a closed world the indirect call-return labels aggregate every
	// address-taken routine's summary. When the address-taken set itself
	// changed, components holding indirect call sites must re-derive
	// their labels even if no member routine was edited.
	aggChanged := false
	if conf.LinkIndirectCalls {
		aggChanged = !equalInts(cg.AddressTaken(), prevCG.AddressTaken())
		if !aggChanged {
			for _, ri := range dirty {
				if patched.Routines[ri].AddressTaken ||
					(ri < nOld && prev.Prog.Routines[ri].AddressTaken) {
					aggChanged = true
					break
				}
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

	// The scheduler's shape (component maps, seed orders, indirect
	// arrays) is a pure function of structure the fast paths just proved
	// unchanged; reuse prev's when possible instead of re-deriving the
	// per-component DFS orders.
	var sched *phaseSched
	if shapeSame && cg.StructureReused() && prev.schedShape != nil {
		sched = newPhaseSchedFromShape(g, cg, conf, prev.schedShape)
	} else {
		sched = newPhaseSched(g, cg, conf)
		sched.prepareIndirect()
	}
	a.schedShape = sched.shape()

	// ---- phase 1 -------------------------------------------------------
	start = time.Now()
	rsp = rt.Begin(rparent, "phase1")
	resolved1 := make([]bool, nComp)
	a.Stats.Phase1Waves, a.Stats.Phase1Iterations, a.Stats.Phase1CPU =
		a.runIncremental1(prev, sched, dirtyComp, resolved1)
	a.Stats.Phase1 = time.Since(start)
	rt.Arg(rsp, "iterations", int64(a.Stats.Phase1Iterations))
	rt.End(rsp)
	if err := cancelled(); err != nil {
		return nil, err
	}

	// ---- phase 2 -------------------------------------------------------
	start = time.Now()
	rsp = rt.Begin(rparent, "phase2")
	if !linksShared {
		g.linkReturnSites(conf)
	}
	dirty2 := make([]bool, nComp)
	copy(dirty2, resolved1)
	markCallees := func(pg *callgraph.Graph, ri int) {
		for _, t := range pg.Callees(ri) {
			if t >= 0 && t < nNew {
				dirty2[cg.Component(t)] = true
			}
		}
	}
	for _, ri := range dirty {
		// The edit may have added or removed call sites; the previous
		// and the current callees' exits both see their return-site link
		// structure change.
		markCallees(cg, ri)
		if ri < nOld {
			for _, t := range prevCG.Callees(ri) {
				if t < nNew {
					dirty2[cg.Component(t)] = true
				}
			}
		}
	}
	for ri := nNew; ri < nOld; ri++ {
		// Removed routines take their call sites with them.
		for _, t := range prevCG.Callees(ri) {
			if t < nNew {
				dirty2[cg.Component(t)] = true
			}
		}
	}
	if conf.LinkIndirectCalls {
		indirectRets := aggChanged
		if !indirectRets {
			for _, ri := range dirty {
				if cg.HasIndirectCall(ri) || (ri < nOld && prevCG.HasIndirectCall(ri)) {
					indirectRets = true
					break
				}
			}
		}
		if !indirectRets {
			for ri := nNew; ri < nOld; ri++ {
				if prevCG.HasIndirectCall(ri) {
					indirectRets = true
					break
				}
			}
		}
		if indirectRets {
			// Indirect return sites link to every address-taken exit;
			// any change to the site population re-links them all.
			for _, ri := range cg.AddressTaken() {
				dirty2[cg.Component(ri)] = true
			}
		}
	}
	resolved2 := make([]bool, nComp)
	a.Stats.Phase2Waves, a.Stats.Phase2Iterations, a.Stats.Phase2CPU =
		a.runIncremental2(prev, sched, clean, nodeDelta, dirty2, resolved2)
	a.Stats.Phase2 = time.Since(start)
	rt.Arg(rsp, "iterations", int64(a.Stats.Phase2Iterations))
	rt.End(rsp)
	if err := cancelled(); err != nil {
		return nil, err
	}

	// ---- finish --------------------------------------------------------
	a.collectSummariesIncremental(prev, cg, resolved1, resolved2)
	a.collectCountsIncremental(prev, dirty)
	a.livOnce = make([]sync.Once, nNew)
	a.liv = make([]*dataflow.Liveness, nNew)
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
	inc.ReusedComponents = nComp - inc.ResolvedComponents
	a.Incremental = inc
	asp.Arg("resolved_components", int64(inc.ResolvedComponents)).
		Arg("reused_components", int64(inc.ReusedComponents))
	a.publishMetrics(wlGets0, wlNews0, lbGets0, lbNews0, duGets0, duNews0)
	return a, nil
}

// validatePatched checks the structural invariants an edit can break
// without paying for a full Validate: the edited routines themselves,
// plus their direct callers (whose entry-selector immediates must still
// be in range if the edit changed an entrance list). When the routine
// count shrank, clean routines may suddenly target removed indices, so
// the whole program is validated. The routines are checked on the
// worker pool; the first error in routine order is reported.
func validatePatched(patched *prog.Program, prev *Analysis, dirty []int, workers int) error {
	nNew, nOld := len(patched.Routines), len(prev.Prog.Routines)
	if nNew < nOld {
		if err := patched.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		return nil
	}
	if nNew == 0 {
		return fmt.Errorf("core: prog: program has no routines")
	}
	if patched.Entry < 0 || patched.Entry >= nNew {
		return fmt.Errorf("core: prog: entry routine index %d out of range", patched.Entry)
	}
	need := make([]bool, nNew)
	for _, ri := range dirty {
		need[ri] = true
		if ri < nOld {
			for _, c := range prev.CallGraph().Callers(ri) {
				need[c] = true
			}
		}
	}
	var check []int
	for ri, n := range need {
		if n {
			check = append(check, ri)
		}
	}
	errs := make([]error, len(check))
	par.ForEach(len(check), workers, func(i int) {
		errs[i] = patched.ValidateRoutine(check[i])
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// assemblePSG builds the patched program's PSG from the dirty routines'
// structure-pass records (sp, parallel to dirty) and prev's slab ranges
// of the clean routines, which are copied — converged sets and labels
// included — with IDs shifted to their new offsets. It returns the
// per-routine node ID delta (new − old, meaningful where clean) and two
// reuse facts: shapeSame reports that the new PSG is structurally
// identical to prev's (same nodes, edges and IDs throughout — the
// adjacency and index lists are then shared with prev), and linksShared
// that the phase-2 return-site links were shared too, so
// linkReturnSites may be skipped. Either way every record is placed and
// sp's builders are released.
//
// The general path lays the records out exactly as a from-scratch
// buildPSG does: nodes and edges are routine-contiguous in routine
// order, a copied range preserves creation order, and caller edges are
// registered in edge-ID order, so slabs, index lists and CallerEdges
// are byte-identical.
func (a *Analysis) assemblePSG(prev *Analysis, clean []bool, dirty []int, sp *structPass, conf Config) (delta []int, shapeSame, linksShared bool) {
	defer sp.releaseBuilders()
	pg := prev.PSG
	nNew, nOld := len(a.Prog.Routines), len(prev.Prog.Routines)
	oldNodeStart, oldEdgeStart := pg.routineBounds()
	if nNew == nOld {
		if linksShared, ok := a.assemblePSGShared(prev, dirty, sp, conf, oldNodeStart, oldEdgeStart); ok {
			return make([]int, nNew), true, linksShared
		}
	}
	recs := make([]routineRec, nNew)
	k := 0
	for ri := range recs {
		if clean[ri] {
			recs[ri] = prevRec(pg, ri, oldNodeStart, oldEdgeStart)
		} else {
			recs[ri] = sp.recs[k]
			k++
		}
	}
	g := &PSG{Prog: a.Prog, Graphs: a.Graphs}
	g.layout(recs, conf.Workers())
	a.PSG = g
	nodeDelta := make([]int, nNew)
	for ri := range recs {
		if clean[ri] {
			nodeDelta[ri] = int(g.nodeStart[ri]) - recs[ri].nodeBase
		}
	}
	for k, ri := range dirty {
		sp.placed(k, int(g.nodeStart[ri]), int(g.edgeStart[ri]))
	}
	return nodeDelta, false, false
}

// assemblePSGShared is assemblePSG's structural-reuse fast path for the
// common case that an edit preserves every routine's PSG shape: a body
// edit that does not touch call sites or exits, including one that
// empties blocks and so renumbers the blocks after them. It first
// compares every dirty record against the range it would replace
// (routineRec.sameShape); only when all match does it copy both slabs
// wholesale — one memcpy each, converged sets and labels included — and
// write the records over their ranges. The new PSG then shares prev's
// CSR adjacency, entry/exit index lists, caller-edge registrations and
// (when still valid) return-site links: all are pure functions of the
// structure just proven unchanged, and are treated as read-only by both
// analyses. On a mismatch nothing has been copied, and the caller lays
// the same records out on the general path.
func (a *Analysis) assemblePSGShared(prev *Analysis, dirty []int, sp *structPass, conf Config, nodeStart, edgeStart []int32) (linksShared, ok bool) {
	pg := prev.PSG
	addrTakenSame := true
	for k, ri := range dirty {
		nlo, nhi := nodeStart[ri], nodeStart[ri+1]
		elo, ehi := edgeStart[ri], edgeStart[ri+1]
		if !sp.recs[k].sameShape(pg.Nodes[nlo:nhi], pg.Edges[elo:ehi], int(nlo), prev.Graphs[ri], a.Graphs[ri]) {
			return false, false
		}
		// The return-site links additionally depend — in a closed world —
		// on the address-taken flags, which a body edit can change
		// without moving a single node.
		if a.Prog.Routines[ri].AddressTaken != prev.Prog.Routines[ri].AddressTaken {
			addrTakenSame = false
		}
	}
	g := &PSG{
		Prog:        a.Prog,
		Graphs:      a.Graphs,
		Nodes:       cloneSlab(pg.Nodes, conf.Workers()),
		Edges:       cloneSlab(pg.Edges, conf.Workers()),
		EntryNodes:  pg.EntryNodes,
		ExitNodes:   pg.ExitNodes,
		CallerEdges: pg.CallerEdges,
		outStart:    pg.outStart,
		inStart:     pg.inStart,
		outEdgeIDs:  pg.outEdgeIDs,
		inEdgeIDs:   pg.inEdgeIDs,
		nodeStart:   nodeStart,
		edgeStart:   edgeStart,
	}
	par.ForEach(len(dirty), conf.Workers(), func(k int) {
		ri := dirty[k]
		sp.recs[k].writeAt(g.Nodes, g.Edges, int(nodeStart[ri]), int(edgeStart[ri]))
	})
	for k, ri := range dirty {
		sp.placed(k, int(nodeStart[ri]), int(edgeStart[ri]))
	}
	linksShared = pg.retStart != nil && (addrTakenSame || !conf.LinkIndirectCalls)
	if linksShared {
		g.retStart, g.retSiteIDs = pg.retStart, pg.retSiteIDs
		g.depStart, g.depExitIDs = pg.depStart, pg.depExitIDs
	}
	a.PSG = g
	return linksShared, true
}

// cloneSlab copies a node or edge slab, one contiguous chunk per
// worker.
func cloneSlab[T Node | Edge](s []T, workers int) []T {
	c := make([]T, len(s))
	k := min(par.Workers(workers), 1+len(s)/4096)
	par.ForEach(k, k, func(i int) {
		lo, hi := len(s)*i/k, len(s)*(i+1)/k
		copy(c[lo:hi], s[lo:hi])
	})
	return c
}

// incrementalSavedRestored recomputes the §3.4 sets: clean routines
// keep their cached body facts (PSG.FrameFacts), dirty routines are
// re-scanned, and the serial call-graph fixed point runs over the
// mixture. The call-graph's deduplicated callee lists are equivalent to
// frameScan's per-site lists for the fixed point.
//
// When the call graph is a structural reuse of prev's and every dirty
// routine re-scans to its previous body facts, the fixed point's inputs
// are untouched — the previous frames and SavedRestored slices are
// shared outright (both read-only), skipping the O(routines) solve.
// The returned flag reports that sharing, which also tells the caller
// no per-routine SavedRestored comparison can fire.
func (a *Analysis) incrementalSavedRestored(prev *Analysis, cg *callgraph.Graph, clean []bool, dirty []int) (time.Duration, bool) {
	start := time.Now()
	g := a.PSG
	n := len(a.Prog.Routines)
	prevFrames := prev.PSG.FrameFacts()
	dirtyFrames := scanFrames(a.Prog, dirty, a.Config.Workers())
	if cg.StructureReused() && n == len(prevFrames) {
		same := true
		for i, ri := range dirty {
			if dirtyFrames[i] != prevFrames[ri] {
				same = false
				break
			}
		}
		if same {
			g.frames = prevFrames
			g.SavedRestored = prev.PSG.SavedRestored
			return time.Since(start), true
		}
	}
	g.SavedRestored = make([]regset.Set, n)
	g.frames = make([]FrameFact, n)
	for ri := range clean {
		if clean[ri] && ri < len(prevFrames) {
			g.frames[ri] = prevFrames[ri]
		}
	}
	for i, ri := range dirty {
		g.frames[ri] = dirtyFrames[i]
	}
	callees := make([][]int, n)
	for ri := 0; ri < n; ri++ {
		callees[ri] = cg.Callees(ri)
	}
	preserving := solvePreserving(g.frames, callees, cg.AddressTaken())
	for ri := 0; ri < n; ri++ {
		if preserving[ri] {
			g.SavedRestored[ri] = g.frames[ri].LocalSaved
		}
	}
	return time.Since(start), false
}

// collectSummariesIncremental assembles the per-routine summaries by
// copying prev's and recomputing only the routines of components some
// phase re-solved. An unresolved component's converged node sets were
// carried over verbatim and its SavedRestored did not move (a moved set
// seeds phase-1 dirtiness), so its previous summaries are byte-equal to
// what recomputation would produce. Routines the patch added sit past
// prev's table and are always recomputed (their components are dirty by
// construction, but the copy cannot cover them).
func (a *Analysis) collectSummariesIncremental(prev *Analysis, cg *callgraph.Graph, resolved1, resolved2 []bool) {
	a.Summaries = make([]RoutineSummary, len(a.Prog.Routines))
	copied := copy(a.Summaries, prev.Summaries)
	a.recollectSummaries(cg, resolved1, resolved2, copied)
}

// recollectSummaries re-reads, on the worker pool, the summaries of the
// routines at index from and beyond and of every member of a component
// either phase re-solved.
func (a *Analysis) recollectSummaries(cg *callgraph.Graph, resolved1, resolved2 []bool, from int) {
	par.ForEach(len(a.Summaries), a.Config.Workers(), func(ri int) {
		if c := cg.Component(ri); ri >= from || resolved1[c] || resolved2[c] {
			a.Summaries[ri] = a.collectSummary(ri)
		}
	})
}

// collectCountsIncremental fills the structural counts from prev's by
// per-dirty-routine deltas, avoiding the O(routines) CFG walks. The
// result is exactly collectCounts' — every term is a per-routine sum
// and clean routines share their graphs with prev — so it falls back to
// the full collection only when the routine count changed (positional
// deltas stop lining up then).
func (a *Analysis) collectCountsIncremental(prev *Analysis, dirty []int) {
	nNew, nOld := len(a.Prog.Routines), len(prev.Prog.Routines)
	if nNew != nOld {
		a.collectCounts()
		return
	}
	st, ps := &a.Stats, &prev.Stats
	st.Routines = nNew
	st.Instructions = ps.Instructions
	st.BasicBlocks = ps.BasicBlocks
	st.CFGArcs = ps.CFGArcs
	bytes := int64(ps.GraphBytes) -
		int64(prev.PSG.MemoryFootprint()) + int64(a.PSG.MemoryFootprint())
	for _, ri := range dirty {
		st.Instructions += len(a.Prog.Routines[ri].Code) - len(prev.Prog.Routines[ri].Code)
		ng, og := a.Graphs[ri], prev.Graphs[ri]
		st.BasicBlocks += len(ng.Blocks) - len(og.Blocks)
		st.CFGArcs += ng.NumArcs() - og.NumArcs()
		bytes += int64(ng.MemoryFootprint()) - int64(og.MemoryFootprint())
	}
	st.PSGNodes = a.PSG.NumNodes()
	st.PSGEdges = a.PSG.NumEdges()
	st.GraphBytes = uint64(bytes)
}

// prepareIndirect populates the scheduler's §3.5 indirect-call
// machinery the same way runPhase1 does, without resetting any sets.
func (s *phaseSched) prepareIndirect() {
	g, conf := s.g, s.conf
	for i := range g.Edges {
		if g.Edges[i].indirect(g) {
			s.indirectEdges = append(s.indirectEdges, int32(i))
		}
	}
	if conf.LinkIndirectCalls && len(s.indirectEdges) > 0 {
		for ri, r := range g.Prog.Routines {
			if r.AddressTaken {
				s.addrTakenEntries = append(s.addrTakenEntries, g.EntryNodes[ri][0])
			}
		}
		if len(s.addrTakenEntries) > 0 {
			s.pinnedComp = s.cg.PinnedComponent()
		}
	}
}

// prepPhase1Comp re-establishes component c's phase-1 starting state:
// member nodes reset to the optimistic lattice start and member
// call-return edges re-derived — optimistic for in-component callees
// (they reconverge together), final converged labels for cross-component
// callees (those components settled in an earlier wave or were reused
// verbatim; phase1Use is the converged phase-1 MAY-USE either way), and
// the runPhase1 treatment for indirect edges. After this the component
// is in exactly the state a from-scratch phase 1 has when its wave
// begins, so solvePhase1 lands on the identical fixed point.
func (s *phaseSched) prepPhase1Comp(c int) {
	g, conf := s.g, s.conf
	std := callstd.UnknownCallSummary()
	haveAddr := len(s.addrTakenEntries) > 0
	for _, nid := range s.nodes(c) {
		n := &g.Nodes[nid]
		n.MayUse, n.MayDef, n.MustDef = regset.Empty, regset.Empty, regset.All
	}
	for _, nid := range s.nodes(c) {
		for _, eid := range g.OutEdges(int(nid)) {
			e := &g.Edges[eid]
			if e.Kind != EdgeCallReturn {
				continue
			}
			call := &g.Nodes[e.Src]
			if call.CallTarget < 0 {
				switch {
				case conf.LinkIndirectCalls && haveAddr:
					e.MayUse, e.MayDef, e.MustDef = regset.Empty, regset.Empty, regset.All
				default:
					// Open world, or a closed world with no
					// address-taken routine: the constant
					// calling-standard label.
					e.MayUse, e.MayDef, e.MustDef = std.Used, std.Killed, std.Defined
				}
				continue
			}
			entryID := g.EntryNodes[call.CallTarget][call.CallEntry]
			if s.nodeComp[entryID] == int32(c) {
				e.MayUse, e.MayDef, e.MustDef = regset.Empty, regset.Empty, regset.All
				continue
			}
			entry := &g.Nodes[entryID]
			sr := g.SavedRestored[call.CallTarget]
			e.MayUse = entry.phase1Use.Minus(sr)
			e.MayDef = entry.MayDef.Minus(sr)
			e.MustDef = entry.MustDef.Minus(sr)
		}
	}
}

// runIncremental1 walks the callee-first schedule, re-solving only the
// dirty components of each wave and propagating dirtiness to caller
// components whose inputs (the callees' outward entry summaries)
// actually changed. dirtyComp is extended in place; resolved marks the
// components re-solved.
func (a *Analysis) runIncremental1(prev *Analysis, s *phaseSched, dirtyComp, resolved []bool) (waves, iters int, cpu time.Duration) {
	g, cg := s.g, s.cg
	counts := make([]int, cg.NumComponents())
	var todo []int
	for _, wave := range cg.CalleeFirstWaves() {
		if s.cancelled() {
			break
		}
		todo = todo[:0]
		for _, c := range wave {
			if dirtyComp[c] {
				todo = append(todo, c)
			}
		}
		if len(todo) == 0 {
			continue
		}
		waves++
		wave := todo
		cpu += par.ForEachWorker(len(wave), s.workers, func(w, i int) {
			if s.cancelled() {
				return
			}
			c := wave[i]
			s.snapshotRets(c)
			s.prepPhase1Comp(c)
			counts[c] = s.solvePhase1(c)
			// Snapshot phase-1 MAY-USE immediately: later-wave preps and
			// the final summary collection read phase1Use uniformly for
			// reused and re-solved components alike.
			for _, nid := range s.nodes(c) {
				g.Nodes[nid].phase1Use = g.Nodes[nid].MayUse
			}
		})
		// Cutoff: dirty the callers of routines whose outward summary
		// moved. Callers live in strictly later callee-first waves (or
		// this component, already converged), so the marks land ahead
		// of the walk.
		for _, c := range wave {
			resolved[c] = true
			for _, ri := range cg.Members(c) {
				if !a.entrySummaryChanged(prev, ri) {
					continue
				}
				for _, caller := range cg.Callers(ri) {
					if cc := cg.Component(caller); !resolved[cc] {
						dirtyComp[cc] = true
					}
				}
			}
		}
	}
	for _, c := range counts {
		iters += c
	}
	s.obs1.iterations.Add(uint64(iters))
	return waves, iters, cpu
}

// entrySummaryChanged compares routine ri's outward entry summary — the
// §3.4-filtered sets its callers' edge labels are built from — against
// the previous analysis. prev.Summaries stores exactly those filtered
// sets, so the comparison needs no recomputation on the prev side.
func (a *Analysis) entrySummaryChanged(prev *Analysis, ri int) bool {
	if ri >= len(prev.Summaries) {
		return true
	}
	ps := &prev.Summaries[ri]
	entries := a.PSG.EntryNodes[ri]
	if len(entries) != len(ps.CallUsed) {
		return true
	}
	sr := a.PSG.SavedRestored[ri]
	for e, nid := range entries {
		n := &a.PSG.Nodes[nid]
		if n.phase1Use.Minus(sr) != ps.CallUsed[e] ||
			n.MustDef.Minus(sr) != ps.CallDefined[e] ||
			n.MayDef.Minus(sr) != ps.CallKilled[e] {
			return true
		}
	}
	return false
}

// runIncremental2 walks the caller-first schedule, re-solving the dirty
// components and propagating dirtiness to callee components whose
// return-site liveness inputs actually changed. clean and nodeDelta
// map re-solved return nodes back to their previous incarnation for
// the cutoff comparison.
func (a *Analysis) runIncremental2(prev *Analysis, s *phaseSched, clean []bool, nodeDelta []int, dirtyComp, resolved []bool) (waves, iters int, cpu time.Duration) {
	g, cg := s.g, s.cg
	counts := make([]int, cg.NumComponents())
	var todo []int
	for _, wave := range cg.CallerFirstWaves() {
		if s.cancelled() {
			break
		}
		todo = todo[:0]
		for _, c := range wave {
			if dirtyComp[c] {
				todo = append(todo, c)
			}
		}
		if len(todo) == 0 {
			continue
		}
		waves++
		wave := todo
		cpu += par.ForEachWorker(len(wave), s.workers, func(w, i int) {
			if s.cancelled() {
				return
			}
			c := wave[i]
			s.snapshotRets(c)
			for _, nid := range s.nodes(c) {
				g.Nodes[nid].MayUse = regset.Empty
			}
			counts[c] = s.solvePhase2(c)
		})
		// Cutoff: a callee's exits re-read our return nodes through
		// their return-site links; only a return node whose liveness
		// moved can disturb them. Callee components sit in strictly
		// later caller-first waves (or in this one, already converged).
		for _, c := range wave {
			resolved[c] = true
			csnap := retSnapOf(s, c)
			si := 0
			for _, nid := range s.nodes(c) {
				n := &g.Nodes[nid]
				if n.Kind != NodeReturn {
					continue
				}
				changed := true
				if clean[n.Routine] {
					if csnap != nil {
						// Snapshot mode (in-place re-analysis): the slab IS
						// prev's, so the old liveness was captured before the
						// first phase overwrote this component.
						changed = csnap[si] != n.MayUse
					} else {
						pn := &prev.PSG.Nodes[n.ID-nodeDelta[n.Routine]]
						changed = pn.MayUse != n.MayUse
					}
				}
				si++
				if !changed {
					continue
				}
				for _, x := range g.exitDeps(n.ID) {
					if xc := s.nodeComp[x]; int(xc) != c && !resolved[xc] {
						dirtyComp[xc] = true
					}
				}
			}
		}
	}
	for _, c := range counts {
		iters += c
	}
	s.obs2.iterations.Add(uint64(iters))
	return waves, iters, cpu
}

// retSnapOf returns component c's return-node liveness snapshot when
// the scheduler runs in snapshot mode, nil otherwise.
func retSnapOf(s *phaseSched, c int) []regset.Set {
	if s.retSnap == nil {
		return nil
	}
	return s.retSnap[c]
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
