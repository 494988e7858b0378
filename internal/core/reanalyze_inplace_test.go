package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/progen"
)

// TestReanalyzeInPlaceMatchesScratch mirrors the copying matrix: every
// mutation kind under every option set must land byte-identical to a
// from-scratch analysis. The base analysis is rebuilt per mutation,
// since ReanalyzeInPlace consumes it.
func TestReanalyzeInPlaceMatchesScratch(t *testing.T) {
	for name, opts := range reanalyzeOptionSets() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 6; seed++ {
				base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(seed))
				for kind := progen.Mutation(0); kind < progen.NumMutations; kind++ {
					prev, err := Analyze(base, opts...)
					if err != nil {
						t.Fatalf("seed %d: base analysis: %v", seed, err)
					}
					mutant, desc := progen.MutateKind(base, seed*977+uint64(kind), kind)
					inc, err := ReanalyzeInPlace(prev, mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: ReanalyzeInPlace: %v", seed, desc, err)
					}
					scratch, err := Analyze(mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: scratch analysis: %v", seed, desc, err)
					}
					checkSameAnalysis(t, inc, scratch)
					if inc.Incremental == nil {
						t.Fatalf("seed %d %s: Incremental stats missing", seed, desc)
					}
				}
			}
		})
	}
}

// TestReanalyzeInPlacePingPong drives the editor-loop steady state the
// in-place mode exists for: the same two programs alternate as the
// target, so after the first step every edit updates an analysis that
// was itself updated in place. Each step must match scratch exactly.
func TestReanalyzeInPlacePingPong(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(13))
	mutant, _ := progen.MutateKind(base, 29, progen.MutBodyEdit)
	scratchBase, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	scratchMut, err := Analyze(mutant)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		target, want := mutant, scratchMut
		if step%2 == 1 {
			target, want = base, scratchBase
		}
		cur, err = ReanalyzeInPlace(cur, target)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkSameAnalysis(t, cur, want)
	}
}

// TestReanalyzeInPlaceChain applies a fresh mutation at every step, so
// the in-place path also sees routine-count and shape changes that
// force its copying fallback mid-chain.
func TestReanalyzeInPlaceChain(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(17))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for step := 0; step < 8; step++ {
		mutant, desc := progen.Mutate(cur, uint64(4000+step))
		inc, err := ReanalyzeInPlace(prev, mutant)
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

// TestReanalyzeInPlaceIdentityEdit: an unchanged program must re-solve
// nothing and still compare equal to a scratch analysis.
func TestReanalyzeInPlaceIdentityEdit(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(7))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ReanalyzeInPlace(prev, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental.DirtyRoutines != 0 {
		t.Fatalf("identity edit marked %d routines dirty", inc.Incremental.DirtyRoutines)
	}
	if inc.Incremental.ResolvedComponents != 0 {
		t.Fatalf("identity edit re-solved %d components", inc.Incremental.ResolvedComponents)
	}
	checkSameAnalysis(t, inc, scratch)
}

// TestReanalyzeInPlaceTakesInPlacePath guards against the fast path
// silently rotting into a permanent fallback: across the mutation
// matrix, at least one body edit must be applied truly in place (the
// returned analysis is prev itself), and structural mutations must
// fall back rather than error.
func TestReanalyzeInPlaceTakesInPlacePath(t *testing.T) {
	hits := 0
	for seed := uint64(1); seed <= 6; seed++ {
		base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(seed))
		for kind := progen.Mutation(0); kind < progen.NumMutations; kind++ {
			prev, err := Analyze(base)
			if err != nil {
				t.Fatal(err)
			}
			mutant, desc := progen.MutateKind(base, seed*977+uint64(kind), kind)
			inc, err := ReanalyzeInPlace(prev, mutant)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, desc, err)
			}
			if inc == prev {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no mutation in the matrix was applied in place; the fast path is dead")
	}
	t.Logf("in-place applications: %d", hits)
}

func TestReanalyzeInPlaceConfigMismatch(t *testing.T) {
	base := progen.Generate(progen.TestProfile(10), progen.DefaultOptions(3))
	prev, err := Analyze(base, WithClosedWorld())
	if err != nil {
		t.Fatal(err)
	}
	mutant, _ := progen.Mutate(base, 5)
	_, err = ReanalyzeInPlace(prev, mutant, WithOpenWorld())
	var mismatch *ConfigMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("want ConfigMismatchError, got %v", err)
	}
	// prev is documented to stay valid on a config mismatch; the retry
	// with matching options must succeed.
	if _, err := ReanalyzeInPlace(prev, mutant, WithClosedWorld()); err != nil {
		t.Fatalf("matching options after mismatch: %v", err)
	}
}

// TestReanalyzeInPlaceResetsIndirectCallSummary: the indirect-call
// summary is memoized per Analysis, and the in-place path returns its
// input, so it must drop the memo when an edit moves an address-taken
// routine's summary.
func TestReanalyzeInPlaceResetsIndirectCallSummary(t *testing.T) {
	base := prog.MustAssemble(nonConformantSrc)
	patched := prog.MustAssemble(strings.Replace(nonConformantSrc, "print t5", "print t6", 1))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	before := prev.IndirectCallSummary() // memoize
	inc, err := ReanalyzeInPlace(prev, patched)
	if err != nil {
		t.Fatal(err)
	}
	if inc != prev {
		t.Fatal("edit was not applied in place; the test needs the in-place path")
	}
	scratch, err := Analyze(patched)
	if err != nil {
		t.Fatal(err)
	}
	want := scratch.IndirectCallSummary()
	if want == before {
		t.Fatal("edit did not move the indirect-call summary")
	}
	if got := inc.IndirectCallSummary(); got != want {
		t.Errorf("indirect-call summary after in-place edit = %+v, want %+v", got, want)
	}
	checkSameAnalysis(t, inc, scratch)
}
