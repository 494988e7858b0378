package opt

import (
	"repro/internal/callgraph"
	"repro/internal/callstd"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/regset"
)

// reassignCalleeSaved implements Figure 1(d): a value held in a saved
// and restored callee-saved register Rs can move to a caller-saved
// register Rt when no call in the routine kills Rt; the save and restore
// of Rs are then deleted.
//
// Conditions for a routine R and candidate Rt:
//
//   - Rs ∈ SavedRestored(R) with identifiable prologue stores and
//     epilogue loads,
//   - Rt appears in no instruction of R,
//   - Rt is not live at any entrance or exit of R,
//   - no call in R kills Rt — including kills added to callees by this
//     same pass, which recursion would turn into a self-clobber (so
//     routines in recursive call-graph components are never rewritten).
//
// The pass walks the call graph's condensation in callee-first waves,
// components within a wave in parallel. Processing callees before
// callers makes the same-pass interaction one-directional: when a
// routine is considered, every register claimed below it is already
// accumulated in killsThrough for its callees' components, and nothing
// above it has been rewritten yet — so no claimed register can be
// adopted by a caller that keeps it live across the call, and no claim
// needs to consult routines processed concurrently (same-wave
// components are mutually unreachable). The result is identical at any
// worker count.
func reassignCalleeSaved(a *core.Analysis, e *editSet, workers int) int {
	cg := a.CallGraph()
	nc := cg.NumComponents()
	// claims[c]: registers newly clobbered by rewrites inside component
	// c. killsThrough[c]: claims of c and of everything reachable from
	// it — finalized at the wave barrier, read-only afterwards.
	claims := make([]regset.Set, nc)
	killsThrough := make([]regset.Set, nc)
	rewrites := make([]int, nc)
	for _, wave := range cg.CalleeFirstWaves() {
		wave := wave
		par.ForEach(len(wave), workers, func(wi int) {
			c := wave[wi]
			if cg.Recursive(c) {
				// Any register a recursive routine adopts is killed by
				// its own recursion.
				return
			}
			ri := cg.Members(c)[0]
			rewrites[c], claims[c] = reassignRoutine(a, cg, ri, killsThrough, e)
		})
		// Barrier: publish this wave's transitive kill sets before any
		// later wave reads them.
		for _, c := range wave {
			kt := claims[c]
			for _, cc := range cg.ComponentCallees(c) {
				kt = kt.Union(killsThrough[cc])
			}
			killsThrough[c] = kt
		}
	}
	return sum(rewrites)
}

// reassignRoutine rewrites as many of routine ri's saved/restored
// registers as candidates allow, returning the rewrite count and the
// set of caller-saved registers it claimed.
func reassignRoutine(a *core.Analysis, cg *callgraph.Graph, ri int, killsThrough []regset.Set, e *editSet) (int, regset.Set) {
	var claimed regset.Set
	s := a.Summary(ri)
	if s.SavedRestored.IsEmpty() {
		return 0, claimed
	}
	r := a.Prog.Routines[ri]
	// Registers killed by any call in the routine, including registers
	// claimed by this pass anywhere below the call targets.
	var callKills regset.Set
	for i := range r.Code {
		switch r.Code[i].Op {
		case isa.OpJsr:
			tgt := r.Code[i].Target
			callKills = callKills.
				Union(a.CallSummaryFor(tgt, int(r.Code[i].Imm)).Killed).
				Union(killsThrough[cg.Component(tgt)])
		case isa.OpJsrInd:
			// Indirect calls kill all caller-saved registers: no
			// candidate can survive.
			return 0, claimed
		}
	}
	rewrites := 0
	for _, rs := range s.SavedRestored.Regs() {
		rt, ok := pickCandidate(r, s, callKills)
		if !ok {
			break
		}
		w := e.routine(ri)
		if !rewriteRoutine(w, rs, rt) {
			continue
		}
		// Subsequent picks must see the rewritten code (Rt is now in
		// use) and the new kill.
		r = w
		rewrites++
		claimed = claimed.Add(rt)
		callKills = callKills.Add(rt)
	}
	return rewrites, claimed
}

// pickCandidate returns a caller-saved register that is completely
// unused in routine r, dead at its boundaries, and not killed by any of
// its calls.
func pickCandidate(r *prog.Routine, s *core.RoutineSummary, callKills regset.Set) (regset.Reg, bool) {
	candidates := callstd.Temporaries.Minus(callKills)
	for i := range r.Code {
		in := &r.Code[i]
		candidates = candidates.Minus(in.Uses()).Minus(in.Kills())
	}
	for _, live := range s.LiveAtEntry {
		candidates = candidates.Minus(live)
	}
	for _, live := range s.LiveAtExit {
		candidates = candidates.Minus(live)
	}
	if candidates.IsEmpty() {
		return 0, false
	}
	return candidates.Pick(), true
}

// rewriteRoutine replaces every occurrence of rs with rt, deleting rs's
// prologue stores and epilogue loads. It returns false (leaving the
// routine untouched) if any save/restore site cannot be identified.
func rewriteRoutine(r *prog.Routine, rs, rt regset.Reg) bool {
	var saves, restores []int
	for _, e := range r.Entries {
		idx, ok := findPrologueSave(r.Code, e, rs)
		if !ok {
			return false
		}
		saves = append(saves, idx)
	}
	for i := range r.Code {
		if r.Code[i].Op == isa.OpRet {
			idx, ok := findEpilogueRestore(r.Code, i, rs)
			if !ok {
				return false
			}
			restores = append(restores, idx)
		}
	}
	deleted := make(map[int]bool)
	for _, i := range saves {
		deleted[i] = true
	}
	for _, i := range restores {
		deleted[i] = true
	}
	for i := range r.Code {
		if deleted[i] {
			r.Code[i] = isa.Nop()
			continue
		}
		in := &r.Code[i]
		if in.Dest == rs {
			in.Dest = rt
		}
		if in.Src1 == rs {
			in.Src1 = rt
		}
		if in.Src2 == rs {
			in.Src2 = rt
		}
	}
	return true
}

func findPrologueSave(code []isa.Instr, e int, rs regset.Reg) (int, bool) {
	for i := e; i < len(code); i++ {
		in := &code[i]
		switch {
		case in.Op == isa.OpSt && in.Src1 == regset.SP:
			if in.Src2 == rs {
				return i, true
			}
		case in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP:
		default:
			return 0, false
		}
	}
	return 0, false
}

func findEpilogueRestore(code []isa.Instr, ret int, rs regset.Reg) (int, bool) {
	for i := ret - 1; i >= 0; i-- {
		in := &code[i]
		switch {
		case in.Op == isa.OpLd && in.Src1 == regset.SP:
			if in.Dest == rs {
				return i, true
			}
		case in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP:
		default:
			return 0, false
		}
	}
	return 0, false
}
