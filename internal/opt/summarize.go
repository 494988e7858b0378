// Package opt implements the optimizations of the paper's Figure 1 —
// the consumers of the interprocedural summaries:
//
//	(a) dead definitions of values unused on any return path,
//	(b) dead definitions of arguments the callee never reads,
//	(c) removal of spills around calls that do not kill the register,
//	(d) reassignment of callee-saved registers to caller-saved
//	    registers that no spanned call kills, deleting the
//	    save/restore pair.
//
// (a) and (b) are both realized by interprocedural dead-code
// elimination; (c) and (d) are pattern-driven rewrites. Every rewrite is
// justified only by the summaries, so the package doubles as an
// end-to-end validation of the analysis: the emulator must observe
// identical output before and after.
package opt

import (
	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/regset"
)

// ConservativeLiveness computes the per-instruction liveness a
// traditional compiler could justify without whole-program knowledge:
// every call is assumed to follow the calling standard, and at every
// exit the return values, the callee-saved registers and the dedicated
// registers are assumed live.
func ConservativeLiveness(a *core.Analysis, ri int) *dataflow.Liveness {
	exitLive := callstd.Return.Union(callstd.CalleeSaved).
		Union(regset.Of(regset.SP, regset.GP))
	return dataflow.ComputeLiveness(a.Graphs[ri],
		dataflow.WithMetrics(a.Config.Metrics),
		dataflow.WithExitLiveOut(func(*cfg.Block) regset.Set { return exitLive }))
}

// Summarize returns the §2 summarized form of the program: each call
// replaced by a call-summary pseudo-instruction, an entry
// pseudo-instruction prepended at each entrance and an exit
// pseudo-instruction inserted before each ret/halt. The result is a
// self-contained per-routine view for analysis and display; it is not
// executable (the calls are gone).
func Summarize(a *core.Analysis) *prog.Program {
	p := a.Prog.Clone()
	for ri, r := range p.Routines {
		s := a.Summary(ri)
		// Replace calls in place (indices are stable for this step).
		for i := range r.Code {
			in := &r.Code[i]
			switch in.Op {
			case isa.OpJsr:
				// The summary instruction replaces the jsr, which
				// defined ra before the callee read it: ra is defined
				// and killed by the composite, never used from before.
				cs := a.Summaries[in.Target]
				r.Code[i] = isa.CallSummary(
					cs.CallUsed[in.Imm].Remove(regset.RA),
					cs.CallDefined[in.Imm].Add(regset.RA),
					cs.CallKilled[in.Imm].Add(regset.RA))
			case isa.OpJsrInd:
				ics := a.IndirectCallSummary()
				sum := isa.CallSummary(
					ics.Used.Remove(regset.RA).Add(in.Src1),
					ics.Defined.Add(regset.RA),
					ics.Killed.Add(regset.RA))
				r.Code[i] = sum
			}
		}
		// Insert exit pseudo-instructions before each ret/halt, then
		// entry pseudo-instructions, tracking index shifts.
		g := a.Graphs[ri]
		exitLive := make(map[int]regset.Set) // instruction index → set
		for i, blk := range s.ExitBlocks {
			exitInstr := g.Blocks[blk].End - 1
			exitLive[exitInstr] = s.LiveAtExit[i]
		}
		// An entry marker defines the live-at-entry set, which is only
		// correct for control arriving *through the entrance*. A
		// mid-routine entrance that other code can also fall or branch
		// into gets no marker: the defs would clobber liveness on the
		// flow-through paths.
		entryLive := make(map[int]regset.Set)
		for e, idx := range r.Entries {
			block := g.Blocks[g.InstrBlock[idx]]
			if len(block.Preds) == 0 {
				entryLive[idx] = s.LiveAtEntry[e]
			}
		}
		r.Code = insertPseudo(r, entryLive, exitLive)
	}
	return p
}

// insertPseudo rebuilds the code with entry markers inserted at entry
// indices and exit markers before exit instructions, remapping branch
// targets, tables and entries. Markers take over their instruction's
// position: a branch to a ret lands on the exit marker first.
func insertPseudo(r *prog.Routine, entryLive, exitLive map[int]regset.Set) []isa.Instr {
	n := len(r.Code)
	// newIndex[i] is the new position of old instruction i (or of its
	// first marker).
	newIndex := make([]int, n+1)
	var out []isa.Instr
	for i := 0; i < n; i++ {
		newIndex[i] = len(out)
		if live, ok := entryLive[i]; ok {
			out = append(out, isa.Entry(live))
		}
		if live, ok := exitLive[i]; ok {
			out = append(out, isa.Exit(live))
		}
		out = append(out, r.Code[i])
	}
	newIndex[n] = len(out)
	remap := func(i int) int { return newIndex[i] }
	for i := range out {
		in := &out[i]
		if in.Op.IsBranch() && in.Op != isa.OpJmp {
			in.Target = remap(in.Target)
		}
	}
	for ti := range r.Tables {
		for k := range r.Tables[ti] {
			r.Tables[ti][k] = remap(r.Tables[ti][k])
		}
	}
	for e := range r.Entries {
		r.Entries[e] = remap(r.Entries[e])
	}
	return out
}
