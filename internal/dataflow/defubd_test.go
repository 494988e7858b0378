package dataflow_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/regset"
)

// TestBlockXferMatchesInstrWalk checks, on every routine of the 16
// Table 2 profiles, that liveness solved with the O(1) DEF/UBD block
// transfer has exactly the In/Out sets of the per-instruction walk:
// once under the analysis's interprocedural call and exit summaries,
// once under the calling-standard defaults.
func TestBlockXferMatchesInstrWalk(t *testing.T) {
	routines := 0
	for _, prof := range progen.Profiles {
		p := progen.Generate(prof.Scale(0.02), progen.DefaultOptions(1))
		a, err := core.Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		ind := a.IndirectCallSummary()
		for ri, g := range a.Graphs {
			if !g.HasDefUBD() {
				t.Fatalf("%s: routine %d: analysis graph without DEF/UBD", prof.Name, ri)
			}
			self := a.Summary(ri)
			summarized := []dataflow.Option{
				dataflow.WithCallTransfer(func(in *isa.Instr) (regset.Set, regset.Set, bool) {
					switch in.Op {
					case isa.OpJsr:
						s := a.Summary(in.Target)
						return s.CallUsed[in.Imm], s.CallDefined[in.Imm], true
					case isa.OpJsrInd:
						return ind.Used, ind.Defined, true
					}
					return regset.Empty, regset.Empty, false
				}),
				dataflow.WithExitLiveOut(func(b *cfg.Block) regset.Set {
					for i, blk := range self.ExitBlocks {
						if blk == b.ID {
							return self.LiveAtExit[i]
						}
					}
					return regset.Empty
				}),
			}
			for _, opts := range [][]dataflow.Option{summarized, nil} {
				fast := dataflow.ComputeLiveness(g, opts...)
				walk := dataflow.ComputeLiveness(g, append(opts[:len(opts):len(opts)], dataflow.WithInstrWalk())...)
				for b := range g.Blocks {
					if fast.In[b] != walk.In[b] || fast.Out[b] != walk.Out[b] {
						t.Fatalf("%s: %s block %d: DEF/UBD in=%v out=%v, instruction walk in=%v out=%v",
							prof.Name, p.Routines[ri].Name, b, fast.In[b], fast.Out[b], walk.In[b], walk.Out[b])
					}
				}
			}
			routines++
		}
	}
	if len(progen.Profiles) != 16 {
		t.Errorf("checked %d profiles, want the 16 of Table 2", len(progen.Profiles))
	}
	t.Logf("%d routines", routines)
}
