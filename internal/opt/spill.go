package opt

import (
	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/regset"
)

// removeCallSpills implements Figure 1(c): a register spilled around a
// call that the summary proves the call does not kill can stay in its
// register; the store/load pair is deleted.
//
// The pattern recognized, with the store in the call's block and the
// load in the return block:
//
//	st  Rt, off(sp)
//	...           (no writes to Rt or sp, no stores)
//	jsr f         [ Rt ∉ call-killed(f) ]
//	...           (no writes to Rt or sp, no stores, from block start)
//	ld  Rt, off(sp)
//
// Deletion additionally requires that the return block's only
// predecessor is the call block and that no other instruction in the
// routine accesses the slot, so removing the store cannot change any
// other load.
//
// Each routine consults only its own CFG and call summaries, so
// routines fan out over the worker pool; per-routine counts are summed
// in routine order, making the result identical at any worker count.
func removeCallSpills(a *core.Analysis, e *editSet, workers int) int {
	counts := make([]int, len(a.Prog.Routines))
	par.ForEach(len(counts), workers, func(ri int) {
		counts[ri] = spillRoutine(a, e, ri)
	})
	return sum(counts)
}

func spillRoutine(a *core.Analysis, e *editSet, ri int) int {
	removed := 0
	r := a.Prog.Routines[ri]
	g := a.Graphs[ri]
	// code starts as the analyzed body and switches to the private
	// clone after the first deletion, so later pattern searches see the
	// nops exactly as the in-place formulation did.
	code := r.Code
	for _, b := range g.Blocks {
		if b.Term != cfg.TermCall {
			continue
		}
		call := g.Terminator(b)
		if call.Op != isa.OpJsr {
			continue
		}
		killed := a.CallSummaryFor(call.Target, int(call.Imm)).Killed
		retBlock := g.Blocks[b.Succs[0]]
		if len(retBlock.Preds) != 1 {
			continue
		}
		s, l, ok := findSpillPair(code, b, retBlock, killed)
		if !ok {
			continue
		}
		off := code[s].Imm
		if slotAccessedElsewhere(code, off, s, l) ||
			!spAdjustsOnlyAtBoundaries(code, r.Entries) {
			continue
		}
		w := e.routine(ri)
		w.Code[s] = isa.Nop()
		w.Code[l] = isa.Nop()
		code = w.Code
		removed += 2
	}
	return removed
}

// findSpillPair locates a matching store (in the call block) and load
// (in the return block) of the same register and slot, with Rt not
// killed by the call and no interference between each memory operation
// and the call.
func findSpillPair(code []isa.Instr, callBlock, retBlock *cfg.Block, killed regset.Set) (st, ld int, ok bool) {
	// Scan backward from the call for the closest qualifying store.
	for s := callBlock.End - 2; s >= callBlock.Start; s-- {
		in := &code[s]
		if in.Op == isa.OpSt && in.Src1 == regset.SP {
			// Negative offsets live below the stack pointer; the
			// calling standard has no red zone, so a callee's frame
			// may overwrite them and the slot is not private.
			if in.Imm < 0 {
				continue
			}
			rt := in.Src2
			if killed.Contains(rt) || rt == regset.SP || callstd.Dedicated.Contains(rt) {
				continue
			}
			// Between store and call: nothing may write Rt or sp, and
			// no other store may intervene.
			if !regionClean(code, s+1, callBlock.End-1, rt) {
				return 0, 0, false
			}
			// Find the matching load in the return block.
			for l := retBlock.Start; l < retBlock.End; l++ {
				lin := &code[l]
				if lin.Op == isa.OpLd && lin.Src1 == regset.SP &&
					lin.Dest == rt && lin.Imm == in.Imm {
					if !regionClean(code, retBlock.Start, l, rt) {
						return 0, 0, false
					}
					return s, l, true
				}
				// Anything that writes Rt or sp, or stores, before the
				// load disqualifies the pattern.
				if lin.Defs().Contains(rt) || lin.Defs().Contains(regset.SP) ||
					lin.Op == isa.OpSt {
					break
				}
			}
		}
	}
	return 0, 0, false
}

// regionClean reports whether code[lo:hi] contains no write to rt or sp
// and no store.
func regionClean(code []isa.Instr, lo, hi int, rt regset.Reg) bool {
	for i := lo; i < hi; i++ {
		in := &code[i]
		if in.Op == isa.OpSt {
			return false
		}
		defs := in.Defs()
		if defs.Contains(rt) || defs.Contains(regset.SP) {
			return false
		}
	}
	return true
}

// slotAccessedElsewhere reports whether any sp-relative memory
// instruction other than the pair itself touches the slot.
func slotAccessedElsewhere(code []isa.Instr, off int64, st, ld int) bool {
	for i := range code {
		if i == st || i == ld {
			continue
		}
		in := &code[i]
		switch in.Op {
		case isa.OpLd, isa.OpSt:
			if in.Src1 == regset.SP && in.Imm == off {
				return true
			}
		}
	}
	return false
}

// spAdjustsOnlyAtBoundaries reports whether every write to sp is part of
// a routine prologue (the frame-allocation run at an entrance) or
// epilogue (the frame-release run before a ret). Between those
// boundaries sp is constant, so two sp-relative accesses alias exactly
// when their offsets are equal — the property slotAccessedElsewhere
// relies on.
func spAdjustsOnlyAtBoundaries(code []isa.Instr, entries []int) bool {
	boundary := make(map[int]bool)
	for _, e := range entries {
		for i := e; i < len(code); i++ {
			in := &code[i]
			if in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP {
				boundary[i] = true
				continue
			}
			if in.Op == isa.OpSt && in.Src1 == regset.SP {
				continue // prologue saves
			}
			break
		}
	}
	for i := range code {
		if code[i].Op != isa.OpRet {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			in := &code[j]
			if in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP {
				boundary[j] = true
				continue
			}
			if in.Op == isa.OpLd && in.Src1 == regset.SP {
				continue // epilogue restores
			}
			break
		}
	}
	for i := range code {
		in := &code[i]
		if in.Defs().Contains(regset.SP) && !boundary[i] {
			return false
		}
	}
	return true
}
