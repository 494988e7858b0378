package opt

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/regset"
)

// TestSummarizedFormLivenessMatches cross-validates the §2 machinery two
// independent ways: the interprocedural liveness the dead-code pass
// solves (core.Analysis.SolveRoutineLiveness: analysis summaries
// plugged into the dataflow options) must equal
// plain *intraprocedural* liveness over the Summarize()d program, where
// the same summaries live inside entry/exit/call-summary
// pseudo-instructions. Any disagreement means the two §2 encodings have
// diverged.
func TestSummarizedFormLivenessMatches(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p := progen.Generate(progen.TestProfile(20), progen.DefaultOptions(seed))
		a, err := core.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		s := Summarize(a)
		for ri := range p.Routines {
			direct := a.SolveRoutineLiveness(ri)
			// Intraprocedural liveness on the summarized routine: the
			// pseudo-instructions carry all interprocedural facts.
			sg := cfg.Build(s, ri)
			slv := dataflow.ComputeLiveness(sg)

			// Compare liveness before every original instruction.
			// Summarize inserts markers, so walk both instruction
			// streams in lock step.
			orig := p.Routines[ri].Code
			summ := s.Routines[ri].Code
			si := 0
			for oi := range orig {
				// Skip inserted markers, remembering where the exit
				// marker sits: an exit's liveness lives on its marker
				// in the summarized form.
				exitMarker := -1
				for summ[si].Op == isa.OpEntry || summ[si].Op == isa.OpExit {
					if summ[si].Op == isa.OpExit {
						exitMarker = si
					}
					si++
				}
				if orig[oi].Op == isa.OpJsr || orig[oi].Op == isa.OpJsrInd {
					if summ[si].Op != isa.OpCallSummary {
						t.Fatalf("seed %d routine %d: stream misalignment at %d (%v vs %v)",
							seed, ri, oi, orig[oi].Op, summ[si].Op)
					}
				} else if summ[si].Op != orig[oi].Op {
					t.Fatalf("seed %d routine %d: stream misalignment at %d (%v vs %v)",
						seed, ri, oi, orig[oi].Op, summ[si].Op)
				}

				want := direct.LiveBefore(oi)
				comparePos := si
				if orig[oi].Op.IsReturn() && exitMarker >= 0 {
					comparePos = exitMarker
				}
				got := slv.LiveBefore(comparePos)
				// The summarized form models ra inside the call-summary
				// sets while the direct form models it on the jsr
				// instruction; both are correct, so compare modulo ra.
				mask := regset.All.Minus(regset.Of(regset.RA))
				if want.Intersect(mask) != got.Intersect(mask) {
					t.Fatalf("seed %d routine %d instr %d (%s): liveness differs:\n direct: %v\n summar: %v",
						seed, ri, oi, orig[oi].String(),
						want.Intersect(mask), got.Intersect(mask))
				}
				si++
			}
		}
	}
}
