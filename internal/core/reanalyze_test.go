package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/regset"
)

// checkSameAnalysis verifies that an incremental re-analysis landed on
// exactly the state a from-scratch analysis computes: identical
// summaries, identical structural counts, and identical converged
// per-node and per-edge dataflow sets.
func checkSameAnalysis(t *testing.T, inc, scratch *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(inc.Summaries, scratch.Summaries) {
		for ri := range scratch.Summaries {
			if ri >= len(inc.Summaries) || !reflect.DeepEqual(inc.Summaries[ri], scratch.Summaries[ri]) {
				t.Fatalf("summaries diverge at routine %d (%s):\nincremental: %+v\nscratch:     %+v",
					ri, scratch.Prog.Routines[ri].Name, inc.Summaries[ri], scratch.Summaries[ri])
			}
		}
		t.Fatalf("summaries diverge (length %d vs %d)", len(inc.Summaries), len(scratch.Summaries))
	}
	type counts struct{ routines, instrs, blocks, arcs, nodes, edges, comps int }
	ci := counts{inc.Stats.Routines, inc.Stats.Instructions, inc.Stats.BasicBlocks,
		inc.Stats.CFGArcs, inc.Stats.PSGNodes, inc.Stats.PSGEdges, inc.Stats.SCCComponents}
	cs := counts{scratch.Stats.Routines, scratch.Stats.Instructions, scratch.Stats.BasicBlocks,
		scratch.Stats.CFGArcs, scratch.Stats.PSGNodes, scratch.Stats.PSGEdges, scratch.Stats.SCCComponents}
	if ci != cs {
		t.Fatalf("structural counts diverge:\nincremental: %+v\nscratch:     %+v", ci, cs)
	}
	gi, gs := inc.PSG, scratch.PSG
	if len(gi.Nodes) != len(gs.Nodes) || len(gi.Edges) != len(gs.Edges) {
		t.Fatalf("PSG shape diverges: %d/%d nodes, %d/%d edges",
			len(gi.Nodes), len(gs.Nodes), len(gi.Edges), len(gs.Edges))
	}
	for i := range gs.Nodes {
		ni, ns := &gi.Nodes[i], &gs.Nodes[i]
		if ni.Kind != ns.Kind || ni.Routine != ns.Routine || ni.Block != ns.Block ||
			ni.CallTarget != ns.CallTarget || ni.CallEntry != ns.CallEntry {
			t.Fatalf("node %d structure diverges: %+v vs %+v", i, ni, ns)
		}
		if ni.MayUse != ns.MayUse || ni.MayDef != ns.MayDef || ni.MustDef != ns.MustDef ||
			ni.Phase1Use() != ns.Phase1Use() {
			t.Fatalf("node %d (routine %d) converged sets diverge:\nincremental: mayUse=%v mayDef=%v mustDef=%v p1=%v\nscratch:     mayUse=%v mayDef=%v mustDef=%v p1=%v",
				i, gs.Nodes[i].Routine, ni.MayUse, ni.MayDef, ni.MustDef, ni.Phase1Use(),
				ns.MayUse, ns.MayDef, ns.MustDef, ns.Phase1Use())
		}
	}
	for i := range gs.Edges {
		ei, es := &gi.Edges[i], &gs.Edges[i]
		if ei.Kind != es.Kind || ei.Src != es.Src || ei.Dst != es.Dst {
			t.Fatalf("edge %d structure diverges: %+v vs %+v", i, ei, es)
		}
		if ei.MayUse != es.MayUse || ei.MayDef != es.MayDef || ei.MustDef != es.MustDef {
			t.Fatalf("edge %d labels diverge: %+v vs %+v", i, ei, es)
		}
	}
	if !reflect.DeepEqual(gi.SavedRestored, gs.SavedRestored) {
		t.Fatalf("saved-restored sets diverge:\nincremental: %v\nscratch:     %v",
			gi.SavedRestored, gs.SavedRestored)
	}
}

func reanalyzeOptionSets() map[string][]Option {
	return map[string][]Option{
		"closed":          {WithClosedWorld()},
		"open":            {WithOpenWorld()},
		"closed-nobranch": {WithClosedWorld(), WithBranchNodes(false)},
		"open-nobranch":   {WithOpenWorld(), WithBranchNodes(false)},
	}
}

func TestReanalyzeMatchesScratch(t *testing.T) {
	for name, opts := range reanalyzeOptionSets() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 6; seed++ {
				base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(seed))
				prev, err := Analyze(base, opts...)
				if err != nil {
					t.Fatalf("seed %d: base analysis: %v", seed, err)
				}
				for kind := progen.Mutation(0); kind < progen.NumMutations; kind++ {
					mutant, desc := progen.MutateKind(base, seed*977+uint64(kind), kind)
					inc, err := Reanalyze(prev, mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: Reanalyze: %v", seed, desc, err)
					}
					scratch, err := Analyze(mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: scratch analysis: %v", seed, desc, err)
					}
					t.Logf("seed %d %s: dirty=%d reused=%d resolved=%d", seed, desc,
						inc.Incremental.DirtyRoutines, inc.Incremental.ReusedComponents,
						inc.Incremental.ResolvedComponents)
					checkSameAnalysis(t, inc, scratch)
					if inc.Incremental == nil {
						t.Fatalf("seed %d %s: Incremental stats missing", seed, desc)
					}
				}
			}
		})
	}
}

// TestReanalyzeIdentityEdit re-analyzes with an unchanged program: every
// component must be reused and the result must still match scratch.
func TestReanalyzeIdentityEdit(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(7))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Reanalyze(prev, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental.DirtyRoutines != 0 {
		t.Fatalf("identity edit marked %d routines dirty", inc.Incremental.DirtyRoutines)
	}
	if inc.Incremental.ResolvedComponents != 0 {
		t.Fatalf("identity edit re-solved %d components", inc.Incremental.ResolvedComponents)
	}
	checkSameAnalysis(t, inc, prev)
}

// TestReanalyzeChain applies a sequence of edits, re-analyzing each step
// from the previous incremental result, to catch state that only decays
// after repeated reuse.
func TestReanalyzeChain(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(11))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for step := 0; step < 8; step++ {
		mutant, desc := progen.Mutate(cur, uint64(1000+step))
		inc, err := Reanalyze(prev, mutant)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, desc, err)
		}
		scratch, err := Analyze(mutant)
		if err != nil {
			t.Fatalf("step %d (%s): scratch: %v", step, desc, err)
		}
		checkSameAnalysis(t, inc, scratch)
		cur, prev = mutant, inc
	}
}

func TestReanalyzeConfigMismatch(t *testing.T) {
	base := progen.Generate(progen.TestProfile(10), progen.DefaultOptions(3))
	prev, err := Analyze(base, WithClosedWorld())
	if err != nil {
		t.Fatal(err)
	}
	mutant, _ := progen.Mutate(base, 5)
	_, err = Reanalyze(prev, mutant, WithOpenWorld())
	var mismatch *ConfigMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("want ConfigMismatchError, got %v", err)
	}
	if mismatch.Want == mismatch.Got {
		t.Fatalf("mismatch error does not distinguish keys: %v", mismatch)
	}
	// Options that do not affect results must not mismatch.
	if _, err := Reanalyze(prev, mutant, WithClosedWorld(), WithParallelism(2), WithPerEdgeLabeling(true)); err != nil {
		t.Fatalf("result-neutral options rejected: %v", err)
	}
}

func TestConfigKey(t *testing.T) {
	got := DefaultConfig().Key()
	want := "open_world=false,no_branch_nodes=false"
	if got != want {
		t.Fatalf("DefaultConfig().Key() = %q, want %q", got, want)
	}
	if PaperConfig().Key() != "open_world=true,no_branch_nodes=false" {
		t.Fatalf("PaperConfig().Key() = %q", PaperConfig().Key())
	}
	for _, k := range []string{got, PaperConfig().Key()} {
		if k == "" {
			t.Fatal("empty key")
		}
	}
	_ = fmt.Sprintf("%s", got)
}

// TestReanalyzeUnknownJumpBecomesRet turns an unknown-target jump into a
// ret without moving a single PSG node: the exit node keeps its place
// but loses its Unknown flag and joins the routine's real exits. Both
// re-analysis modes must rebuild that node from scratch, not compare
// the stale flag against itself or adopt the previous exit lists.
func TestReanalyzeUnknownJumpBecomesRet(t *testing.T) {
	const before = `
.start main
.routine main
  jsr f
  halt
.routine f
  lda v0, 2(zero)
  jmp t0, ?
`
	const after = `
.start main
.routine main
  jsr f
  halt
.routine f
  lda v0, 2(zero)
  ret
`
	base := prog.MustAssemble(before)
	patched := base.ShallowClone()
	patched.Routines[1] = prog.MustAssemble(after).Routines[1]
	scratch, err := Analyze(patched)
	if err != nil {
		t.Fatal(err)
	}
	if s := scratch.Summary(0); !s.CallUsed[0].IsEmpty() || !s.LiveAtEntry[0].IsEmpty() {
		t.Fatalf("scratch: main call-used %v, live-at-entry %v; want {}", s.CallUsed[0], s.LiveAtEntry[0])
	}
	for name, re := range map[string]func(*Analysis, *prog.Program, ...Option) (*Analysis, error){
		"copying": Reanalyze, "in-place": ReanalyzeInPlace,
	} {
		prev, err := Analyze(base)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := re(prev, patched)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSameAnalysis(t, inc, scratch)
	}
}

// TestReanalyzeParallelPlacementFallback edits every routine of a
// program at parallelism 4, so the dirty routines span every
// structure-pass chunk, and gives one routine in the middle a new call
// site: the shared path's shape check fails there after the chunks
// before and after it have matched, and the general layout must place
// the same records. The result must equal a from-scratch analysis, and
// every defuse arena the passes checked out must be returned exactly
// once (arenasOut comes back to its starting value). Run under -race it
// also checks that the chunks build, and the layout copies, without
// sharing writes.
func TestReanalyzeParallelPlacementFallback(t *testing.T) {
	base := perfProgram()
	patched := base.ShallowClone()
	mid := len(base.Routines) / 2
	changed := -1
	for ri, r := range base.Routines {
		c := r.Clone()
		for i := range c.Code {
			in := &c.Code[i]
			if in.IsBlockEnd() || in.Op == isa.OpHalt || in.Op.Format() == isa.FmtSets {
				continue
			}
			if ri >= mid && changed < 0 {
				// A direct call where straight-line code stood: two new
				// PSG nodes, so this routine's record no longer fits.
				*in = isa.Jsr(0)
				changed = ri
			} else if *in != isa.Mov(regset.T0, regset.T1) {
				*in = isa.Mov(regset.T0, regset.T1)
			} else {
				*in = isa.Mov(regset.T1, regset.T0)
			}
			break
		}
		patched.Routines[ri] = c
	}
	if changed < 0 {
		t.Fatal("no routine past the middle has straight-line code")
	}
	for _, workers := range []int{1, 4} {
		out0 := arenasOut.Load()
		prev, err := Analyze(base, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Reanalyze(prev, patched, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Analyze(patched, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnalysis(t, inc, scratch)
		if inc.Incremental.DirtyRoutines != len(base.Routines) {
			t.Fatalf("parallelism %d: %d dirty routines, want all %d", workers, inc.Incremental.DirtyRoutines, len(base.Routines))
		}
		if got := arenasOut.Load(); got != out0 {
			t.Fatalf("parallelism %d: %d defuse arenas not returned (or returned twice)", workers, got-out0)
		}
	}
}
