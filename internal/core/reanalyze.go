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
	var dirty []int
	for ri, r := range patched.Routines {
		if ri < nOld && r == prev.Prog.Routines[ri] {
			clean[ri] = true
			newHashes[ri] = prevHashes[ri]
			continue
		}
		newHashes[ri] = r.Hash()
		if ri < nOld && newHashes[ri] == prevHashes[ri] {
			clean[ri] = true
		} else {
			dirty = append(dirty, ri)
		}
	}
	a.adoptBodyHashes(newHashes)
	asp.Arg("dirty_routines", int64(len(dirty)))
	rt.Arg(rsp, "dirty_routines", int64(len(dirty)))
	rt.End(rsp)

	if err := validatePatched(patched, prev, dirty); err != nil {
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
	nodeDelta, tasks, shapeSame, linksShared := a.assemblePSG(prev, clean, dirty, conf)
	cpu := time.Since(start)
	ltasks := tasks
	flowEdges := conf.Metrics.Counter("label/flow_edges")
	defuseLinks := conf.Metrics.Counter("label/defuse_links")
	chainSteps := conf.Metrics.Counter("label/chain_steps")
	denseFallbacks := conf.Metrics.Counter("label/dense_fallbacks")
	cpu += par.ForEachSpan(conf.Tracer, "label", len(ltasks), workers, func(i int) {
		st := ltasks[i].label(a.PSG, conf)
		flowEdges.Add(uint64(len(ltasks[i].refs)))
		defuseLinks.Add(st.links)
		chainSteps.Add(st.steps)
		denseFallbacks.Add(st.dense)
	})
	releaseTasks(ltasks)
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
// the whole program is validated.
func validatePatched(patched *prog.Program, prev *Analysis, dirty []int) error {
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
	for ri, n := range need {
		if !n {
			continue
		}
		if err := patched.ValidateRoutine(ri); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// assemblePSG builds the patched program's PSG, copying clean routines'
// node and edge slab ranges (converged sets and labels included) from
// prev with IDs shifted to their new offsets, and running the normal
// structural pass for dirty routines. It returns the per-routine node
// ID delta (new − old, meaningful where clean), the labeling tasks of
// the dirty routines, and two reuse facts: shapeSame reports that the
// new PSG is structurally identical to prev's (same nodes, edges and
// IDs throughout — the adjacency and index lists are then shared with
// prev), and linksShared that the phase-2 return-site links were shared
// too, so linkReturnSites may be skipped.
//
// The interleaved index-order walk reproduces exactly the slab layout,
// entry/exit index lists and CallerEdges append order of a from-scratch
// buildPSG: nodes and edges are routine-contiguous in routine order,
// and within a routine the copied range preserves creation order.
func (a *Analysis) assemblePSG(prev *Analysis, clean []bool, dirty []int, conf Config) (delta []int, tasks []labelTask, shapeSame, linksShared bool) {
	patched, graphs := a.Prog, a.Graphs
	pg := prev.PSG
	nNew, nOld := len(patched.Routines), len(prev.Prog.Routines)
	oldNodeStart, oldEdgeStart := pg.routineBounds()

	if nNew == nOld {
		if nodeDelta, tasks, linksShared, ok := a.assemblePSGShared(prev, dirty, conf, oldNodeStart, oldEdgeStart); ok {
			return nodeDelta, tasks, true, linksShared
		}
	}

	// Clean routines copy their exact ranges; a dirty routine reserves
	// two edges per node, as a from-scratch build does.
	nodeCap, edgeCap := 0, 0
	for ri := range patched.Routines {
		if clean[ri] {
			nodeCap += int(oldNodeStart[ri+1] - oldNodeStart[ri])
			edgeCap += int(oldEdgeStart[ri+1] - oldEdgeStart[ri])
			continue
		}
		g := graphs[ri]
		n := len(g.EntryBlocks)
		for _, b := range g.Blocks {
			switch b.Term {
			case cfg.TermExit, cfg.TermUnknownJump, cfg.TermMultiway:
				n++
			case cfg.TermCall:
				n += 2
			}
		}
		nodeCap += n
		edgeCap += 2 * n
	}

	g := &PSG{
		Prog:        patched,
		Graphs:      graphs,
		Nodes:       make([]Node, 0, nodeCap),
		Edges:       make([]Edge, 0, edgeCap),
		EntryNodes:  make([][]int, nNew),
		ExitNodes:   make([][]int, nNew),
		CallerEdges: make([][][]int, nNew),
	}
	for ri := range patched.Routines {
		g.CallerEdges[ri] = make([][]int, len(patched.Routines[ri].Entries))
	}
	a.PSG = g

	nodeDelta := make([]int, nNew)
	g.nodeStart = make([]int32, nNew+1)
	g.edgeStart = make([]int32, nNew+1)
	var scratch buildScratch
	tasks = make([]labelTask, 0, len(dirty))
	for ri := range patched.Routines {
		g.nodeStart[ri] = int32(len(g.Nodes))
		g.edgeStart[ri] = int32(len(g.Edges))
		if !clean[ri] {
			tasks = append(tasks, labelTask{})
			g.buildRoutine(&tasks[len(tasks)-1], ri, conf, &scratch)
			continue
		}
		nlo, nhi := int(oldNodeStart[ri]), int(oldNodeStart[ri+1])
		elo, ehi := int(oldEdgeStart[ri]), int(oldEdgeStart[ri+1])
		nd := len(g.Nodes) - nlo
		ed := len(g.Edges) - elo
		nodeDelta[ri] = nd
		g.Nodes = append(g.Nodes, pg.Nodes[nlo:nhi]...)
		g.Edges = append(g.Edges, pg.Edges[elo:ehi]...)
		if nd != 0 {
			for i := nlo + nd; i < nhi+nd; i++ {
				g.Nodes[i].ID += nd
			}
		}
		if nd != 0 || ed != 0 {
			for i := elo + ed; i < ehi+ed; i++ {
				e := &g.Edges[i]
				e.ID += ed
				e.Src += nd
				e.Dst += nd
			}
		}
		for _, id := range pg.EntryNodes[ri] {
			g.EntryNodes[ri] = append(g.EntryNodes[ri], id+nd)
		}
		for _, id := range pg.ExitNodes[ri] {
			g.ExitNodes[ri] = append(g.ExitNodes[ri], id+nd)
		}
		// Re-register the copied call-return edges with their targets.
		// Scanning the copied range in edge-ID order reproduces the
		// creation order of a from-scratch build, so each
		// CallerEdges[tgt][entry] list is byte-identical.
		for i := elo + ed; i < ehi+ed; i++ {
			e := &g.Edges[i]
			if e.Kind != EdgeCallReturn {
				continue
			}
			call := &g.Nodes[e.Src]
			if call.CallTarget >= 0 {
				g.CallerEdges[call.CallTarget][call.CallEntry] =
					append(g.CallerEdges[call.CallTarget][call.CallEntry], e.ID)
			}
		}
	}
	g.nodeStart[nNew] = int32(len(g.Nodes))
	g.edgeStart[nNew] = int32(len(g.Edges))
	g.buildAdjacency()
	return nodeDelta, tasks, false, false
}

// assemblePSGShared is assemblePSG's structural-reuse fast path for the
// common case that an edit preserves every routine's PSG shape (a body
// edit that does not touch control flow or call sites). It copies both
// slabs wholesale — one memcpy each, converged sets and labels included
// — rebuilds only the dirty routines' ranges in place, and verifies the
// rebuilt ranges are structurally identical to the previous ones. On
// success the new PSG shares prev's CSR adjacency, entry/exit index
// lists, caller-edge registrations and (when still valid) return-site
// links: all are pure functions of the structure just proven unchanged,
// and are treated as read-only by both analyses. Any mismatch abandons
// the attempt — the copied slabs are discarded, possibly mid-rebuild —
// and the caller falls back to the general interleaved walk, which
// re-copies everything from prev.
func (a *Analysis) assemblePSGShared(prev *Analysis, dirty []int, conf Config, nodeStart, edgeStart []int32) ([]int, []labelTask, bool, bool) {
	pg := prev.PSG
	nNew := len(a.Prog.Routines)
	nodes := append([]Node(nil), pg.Nodes...)
	edges := append([]Edge(nil), pg.Edges...)
	g := &PSG{
		Prog:   a.Prog,
		Graphs: a.Graphs,
		// CallerEdges stays nil: buildRoutine skips registration, and the
		// structural compare below proves prev's lists still correct.
		EntryNodes: make([][]int, nNew),
		ExitNodes:  make([][]int, nNew),
	}
	var scratch buildScratch
	tasks := make([]labelTask, 0, len(dirty))
	addrTakenSame := true
	for _, ri := range dirty {
		nlo, nhi := int(nodeStart[ri]), int(nodeStart[ri+1])
		elo, ehi := int(edgeStart[ri]), int(edgeStart[ri+1])
		// Truncate to the routine's offset and let buildRoutine append
		// its nodes and edges into the copy's capacity, overwriting the
		// stale range in place.
		g.Nodes = nodes[:nlo]
		g.Edges = edges[:elo]
		tasks = append(tasks, labelTask{})
		g.buildRoutine(&tasks[len(tasks)-1], ri, conf, &scratch)
		if len(g.Nodes) != nhi || len(g.Edges) != ehi {
			releaseTasks(tasks)
			return nil, nil, false, false
		}
		for i := nlo; i < nhi; i++ {
			n, p := &g.Nodes[i], &pg.Nodes[i]
			if n.Kind != p.Kind || n.Block != p.Block || n.EntryIdx != p.EntryIdx ||
				n.CallTarget != p.CallTarget || n.CallEntry != p.CallEntry ||
				n.Unknown != p.Unknown {
				releaseTasks(tasks)
				return nil, nil, false, false
			}
		}
		for i := elo; i < ehi; i++ {
			e, p := &g.Edges[i], &pg.Edges[i]
			if e.Kind != p.Kind || e.Src != p.Src || e.Dst != p.Dst {
				releaseTasks(tasks)
				return nil, nil, false, false
			}
		}
		// The return-site links additionally depend on each exit's
		// terminator op (ret vs halt) and — in a closed world — on the
		// address-taken flags; a body edit can change either without
		// moving a single node.
		for _, x := range g.ExitNodes[ri] {
			n := &g.Nodes[x]
			if !n.Unknown && g.isRetExit(n) != pg.isRetExit(&pg.Nodes[x]) {
				releaseTasks(tasks)
				return nil, nil, false, false
			}
		}
		if a.Prog.Routines[ri].AddressTaken != prev.Prog.Routines[ri].AddressTaken {
			addrTakenSame = false
		}
	}
	g.Nodes, g.Edges = nodes, edges
	g.EntryNodes, g.ExitNodes = pg.EntryNodes, pg.ExitNodes
	g.CallerEdges = pg.CallerEdges
	g.outStart, g.inStart = pg.outStart, pg.inStart
	g.outEdgeIDs, g.inEdgeIDs = pg.outEdgeIDs, pg.inEdgeIDs
	g.nodeStart, g.edgeStart = nodeStart, edgeStart
	linksShared := pg.retStart != nil && (addrTakenSame || !conf.LinkIndirectCalls)
	if linksShared {
		g.retStart, g.retSiteIDs = pg.retStart, pg.retSiteIDs
		g.depStart, g.depExitIDs = pg.depStart, pg.depExitIDs
	}
	a.PSG = g
	return make([]int, nNew), tasks, linksShared, true
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
	dirtyFrames := make([]FrameFact, len(dirty))
	for i, ri := range dirty {
		r := a.Prog.Routines[ri]
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
		dirtyFrames[i] = f
	}
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
	n := len(a.Prog.Routines)
	a.Summaries = make([]RoutineSummary, n)
	copied := copy(a.Summaries, prev.Summaries)
	for ri := copied; ri < n; ri++ {
		a.Summaries[ri] = a.collectSummary(ri)
	}
	for c := 0; c < cg.NumComponents(); c++ {
		if !resolved1[c] && !resolved2[c] {
			continue
		}
		for _, ri := range cg.Members(c) {
			a.Summaries[ri] = a.collectSummary(ri)
		}
	}
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
