package opt

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/regset"
)

// isPure reports whether an instruction's only effect is writing its
// destination register, making it deletable when that register is dead.
func isPure(in *isa.Instr) bool {
	switch in.Op {
	case isa.OpLda, isa.OpMov,
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpSll, isa.OpSrl, isa.OpCmpeq, isa.OpCmplt, isa.OpCmple,
		isa.OpNot, isa.OpNeg,
		isa.OpAddf, isa.OpSubf, isa.OpMulf, isa.OpDivf,
		isa.OpCvtif, isa.OpCvtfi,
		isa.OpLd:
		return true
	}
	return false
}

// eliminateDeadCode replaces dead pure instructions with nops in the
// edit set, using the interprocedural liveness of the analysis (Figure
// 1(a)/(b)) — or, with conservative set, only the intraprocedural
// liveness a traditional compiler could compute. Each routine consults
// only its own liveness solution, so routines fan out over the worker
// pool; per-routine counts are summed in routine order, making the
// result identical at any worker count. The caller compacts the nops
// away and re-analyzes.
func eliminateDeadCode(a *core.Analysis, e *editSet, conservative bool, workers int) int {
	counts := make([]int, len(a.Prog.Routines))
	par.ForEach(len(counts), workers, func(ri int) {
		counts[ri] = deadCodeRoutine(a, e, ri, conservative)
	})
	return sum(counts)
}

// deadCodeRoutine walks each block of routine ri backward once, from
// the block's live-out set, deleting every pure instruction whose
// definitions are dead after it.
func deadCodeRoutine(a *core.Analysis, e *editSet, ri int, conservative bool) int {
	code := a.Prog.Routines[ri].Code
	var lv *dataflow.Liveness
	if conservative {
		lv = ConservativeLiveness(a, ri)
	} else {
		lv = a.SolveRoutineLiveness(ri)
	}
	deleted := 0
	for _, b := range a.Graphs[ri].Blocks {
		lv.EachLiveAfter(b, func(i int, after regset.Set) {
			in := &code[i]
			if !isPure(in) {
				return
			}
			if defs := in.Defs(); defs.IsEmpty() || defs.Intersects(after) {
				return
			}
			e.routine(ri).Code[i] = isa.Nop()
			deleted++
		})
	}
	return deleted
}

func sum(counts []int) int {
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}
