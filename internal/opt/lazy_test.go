package opt

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// TestLazyReanalysis pins the lazy re-analysis contract. Optimize skips
// only the re-analysis of the final pass's edits, which nothing it
// returns reads; OptimizeAnalyzed settles it. Both give the same
// program and report apart from that one re-analysis, and the analysis
// OptimizeAnalyzed returns is the one a from-scratch Analyze of the
// result computes. Both loop exits are covered: a round budget spent on
// a round that changed code leaves edits pending, a converged loop
// (whose last round changed nothing) does not.
func TestLazyReanalysis(t *testing.T) {
	p := progen.Generate(progen.TestProfile(30), progen.PaperOptOptions(7))
	for _, tc := range []struct {
		name      string
		maxRounds int
		pending   bool
	}{
		{"max-rounds", 1, true},
		{"converged", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.MaxRounds = tc.maxRounds
			out, rep, err := Optimize(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			aOut, a, aRep, err := OptimizeAnalyzed(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rounds == 0 {
				t.Fatalf("generated program gave the optimizer nothing to do: %+v", rep)
			}
			if converged := rep.Rounds < tc.maxRounds; converged == tc.pending {
				t.Fatalf("ran %d of %d rounds; the case needs converged = %v", rep.Rounds, tc.maxRounds, !tc.pending)
			}

			enc, err := sxe.Encode(out)
			if err != nil {
				t.Fatal(err)
			}
			aEnc, err := sxe.Encode(aOut)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, aEnc) {
				t.Fatal("Optimize and OptimizeAnalyzed produced different programs")
			}

			extra := 0
			if tc.pending {
				extra = 1
			}
			if got := aRep.Reanalyses - rep.Reanalyses; got != extra {
				t.Errorf("OptimizeAnalyzed ran %d re-analyses, Optimize %d; want a difference of %d",
					aRep.Reanalyses, rep.Reanalyses, extra)
			}
			same := *aRep
			same.Reanalyses = rep.Reanalyses
			if same != *rep {
				t.Errorf("reports differ beyond Reanalyses: Optimize %+v, OptimizeAnalyzed %+v", *rep, *aRep)
			}

			if a == nil || a.Prog != aOut {
				t.Fatal("OptimizeAnalyzed returned no analysis of its result")
			}
			fresh, err := core.Analyze(aOut, core.WithConfig(opts.Analysis))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Summaries, fresh.Summaries) {
				t.Error("returned analysis's summaries differ from a from-scratch analysis of the result")
			}
			if a.IndirectCallSummary() != fresh.IndirectCallSummary() {
				t.Errorf("indirect-call summary %+v, from scratch %+v",
					a.IndirectCallSummary(), fresh.IndirectCallSummary())
			}
		})
	}
}
