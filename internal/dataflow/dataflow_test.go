package dataflow

import (
	"testing"

	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/regset"
)

func graphFor(t *testing.T, r *prog.Routine) *cfg.Graph {
	t.Helper()
	p := prog.New()
	p.Add(prog.NewRoutine("pad", isa.Ret())) // so call target 0 is valid
	p.Add(r)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return cfg.Build(p, 1)
}

func TestStraightLineLiveness(t *testing.T) {
	r := prog.NewRoutine("f",
		isa.Mov(regset.T0, regset.A0), // 0
		isa.Print(regset.T0),          // 1
		isa.Halt(),                    // 2
	)
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	if !lv.In[0].Contains(regset.A0) {
		t.Error("a0 must be live at entry")
	}
	if lv.In[0].Contains(regset.T0) {
		t.Error("t0 is defined before use; not live at entry")
	}
	if got := lv.LiveAfter(0); !got.Contains(regset.T0) {
		t.Errorf("t0 must be live after its definition: %v", got)
	}
	if got := lv.LiveAfter(1); got.Contains(regset.T0) {
		t.Errorf("t0 dead after its last use: %v", got)
	}
}

func TestBranchLiveness(t *testing.T) {
	// if (a0) { v0 = a1 } else { v0 = a2 }; exit uses v0
	r := &prog.Routine{
		Name: "f",
		Code: []isa.Instr{
			isa.CondBr(isa.OpBeq, regset.A0, 3), // 0
			isa.Mov(regset.V0, regset.A1),       // 1
			isa.Br(4),                           // 2
			isa.Mov(regset.V0, regset.A2),       // 3
			isa.Exit(regset.Of(regset.V0)),      // 4
			isa.Ret(),                           // 5
		},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	entryLive := lv.In[0]
	for _, want := range []regset.Reg{regset.A0, regset.A1, regset.A2} {
		if !entryLive.Contains(want) {
			t.Errorf("%v must be live at entry: %v", want, entryLive)
		}
	}
	if entryLive.Contains(regset.V0) {
		t.Error("v0 defined on all paths before use; not live at entry")
	}
}

func TestLoopLiveness(t *testing.T) {
	// loop: t0 = t0 - t1; bne t0, loop; ret
	r := &prog.Routine{
		Name: "f",
		Code: []isa.Instr{
			isa.Bin(isa.OpSub, regset.T0, regset.T0, regset.T1), // 0
			isa.CondBr(isa.OpBne, regset.T0, 0),                 // 1
			isa.Ret(),                                           // 2
		},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	if !lv.In[0].Contains(regset.T0) || !lv.In[0].Contains(regset.T1) {
		t.Errorf("loop registers must be live at entry: %v", lv.In[0])
	}
	// t1 must stay live around the back edge.
	if !lv.Out[0].Contains(regset.T1) {
		t.Errorf("t1 must be live out of loop block: %v", lv.Out[0])
	}
}

func TestCallSummaryLiveness(t *testing.T) {
	// v0 defined before a call whose summary kills nothing and uses a0;
	// v0 used after the call: live across.
	sum := isa.CallSummary(regset.Of(regset.A0), regset.Empty, regset.Empty)
	r := &prog.Routine{
		Name: "f",
		Code: []isa.Instr{
			isa.LdaImm(regset.V0, 1), // 0
			isa.LdaImm(regset.A0, 2), // 1
			sum,                      // 2
			isa.Print(regset.V0),     // 3
			isa.Halt(),               // 4
		},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	if !lv.LiveAfter(0).Contains(regset.V0) {
		t.Error("v0 must be live across the summarized call")
	}
	if got := lv.LiveBefore(2); !got.Contains(regset.A0) {
		t.Errorf("a0 must be live before the call (call-used): %v", got)
	}
}

func TestCallSummaryMustDefStopsLiveness(t *testing.T) {
	// The callee must-defines v0, so a v0 use after the call does not
	// make v0 live before the call.
	sum := isa.CallSummary(regset.Empty, regset.Of(regset.V0), regset.Of(regset.V0))
	r := &prog.Routine{
		Name: "f",
		Code: []isa.Instr{
			sum,                  // 0
			isa.Print(regset.V0), // 1
			isa.Halt(),           // 2
		},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	if lv.In[0].Contains(regset.V0) {
		t.Error("v0 is call-defined; must not be live at entry")
	}
}

func TestCallKillDoesNotStopLiveness(t *testing.T) {
	// The callee may-defines (kills) t0 but does not must-define it; a
	// use of t0 after the call keeps t0 live before the call.
	sum := isa.CallSummary(regset.Empty, regset.Empty, regset.Of(regset.T0))
	r := &prog.Routine{
		Name: "f",
		Code: []isa.Instr{
			isa.LdaImm(regset.T0, 1), // 0
			sum,                      // 1
			isa.Print(regset.T0),     // 2
			isa.Halt(),               // 3
		},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	if !lv.LiveBefore(1).Contains(regset.T0) {
		t.Error("a kill (may-def) must not stop liveness")
	}
}

func TestRawCallUsesCallingStandard(t *testing.T) {
	r := &prog.Routine{
		Name: "f",
		Code: []isa.Instr{
			isa.Jsr(0),           // 0: raw call, calling-standard summary
			isa.Print(regset.V0), // 1
			isa.Halt(),           // 2
		},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	// Argument registers assumed call-used.
	if !callstd.IntArgs.SubsetOf(lv.In[0]) {
		t.Errorf("argument registers must be live before a raw call: %v", lv.In[0])
	}
	// v0 assumed call-defined, so not live before the call.
	if lv.In[0].Contains(regset.V0) {
		t.Error("v0 assumed defined by a standard-conforming callee")
	}
}

func TestUnknownJumpMakesAllLive(t *testing.T) {
	r := &prog.Routine{
		Name:    "f",
		Code:    []isa.Instr{isa.Jmp(regset.T0, isa.UnknownTable)},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	// Everything except the hardwired zeros must be live at entry.
	want := regset.All.Minus(regset.Of(regset.Zero, regset.FZero))
	if got := lv.In[0]; got != want {
		t.Errorf("In[0] = %v (len %d), want all non-hardwired (len %d)",
			got, got.Len(), want.Len())
	}
}

func TestExitBlockLiveOutEmpty(t *testing.T) {
	r := prog.NewRoutine("f", isa.Ret())
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	if !lv.Out[0].IsEmpty() {
		t.Errorf("exit block live-out = %v, want empty", lv.Out[0])
	}
}

func TestLiveBeforeAfterConsistency(t *testing.T) {
	r := &prog.Routine{
		Name: "f",
		Code: []isa.Instr{
			isa.Mov(regset.T0, regset.A0),
			isa.Bin(isa.OpAdd, regset.T1, regset.T0, regset.A1),
			isa.Print(regset.T1),
			isa.Halt(),
		},
		Entries: []int{0},
	}
	g := graphFor(t, r)
	lv := ComputeLiveness(g)
	// LiveBefore(i+1) == LiveAfter(i) within a block.
	for i := 0; i+1 < 3; i++ {
		if lv.LiveBefore(i+1) != lv.LiveAfter(i) {
			t.Errorf("LiveBefore(%d) != LiveAfter(%d)", i+1, i)
		}
	}
	// LiveBefore(first instr) == block live-in.
	if lv.LiveBefore(0) != lv.In[0] {
		t.Error("LiveBefore(0) != In[block]")
	}
}

func TestWorklistBasics(t *testing.T) {
	w := NewWorklist(4)
	if !w.Empty() {
		t.Error("new worklist must be empty")
	}
	w.Push(2)
	w.Push(0)
	w.Push(2) // duplicate suppressed
	if w.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Len())
	}
	if got := w.Pop(); got != 2 {
		t.Errorf("Pop = %d, want 2 (FIFO)", got)
	}
	w.Push(2) // re-push after pop is allowed
	if w.Len() != 2 {
		t.Errorf("Len after re-push = %d, want 2", w.Len())
	}
	if got := w.Pop(); got != 0 {
		t.Errorf("Pop = %d, want 0", got)
	}
	if got := w.Pop(); got != 2 {
		t.Errorf("Pop = %d, want 2", got)
	}
	if !w.Empty() {
		t.Error("worklist should be empty")
	}
}

// TestEachLiveAfterMatchesLiveAfter requires the one-pass backward block
// sweep to report, at every instruction of the 16 generated Table 2
// profiles, exactly the set LiveAfter rescans for — under the calling
// standard and with exits seeded from a live-at-exit set.
func TestEachLiveAfterMatchesLiveAfter(t *testing.T) {
	exitLive := callstd.Return.Union(callstd.CalleeSaved)
	for pi, prof := range progen.Profiles {
		p := progen.Generate(prof.Scale(0.01), progen.PaperOptOptions(uint64(pi)+1))
		checked := 0
		for ri := range p.Routines {
			g := cfg.Build(p, ri)
			for _, lv := range []*Liveness{
				ComputeLiveness(g),
				ComputeLiveness(g, WithExitLiveOut(func(*cfg.Block) regset.Set { return exitLive })),
			} {
				for _, b := range g.Blocks {
					next := b.End - 1
					lv.EachLiveAfter(b, func(i int, after regset.Set) {
						if i != next {
							t.Fatalf("%s: %s block %d: visited instruction %d, want %d",
								prof.Name, p.Routines[ri].Name, b.ID, i, next)
						}
						next--
						if want := lv.LiveAfter(i); after != want {
							t.Fatalf("%s: %s instruction %d: sweep %v, LiveAfter %v",
								prof.Name, p.Routines[ri].Name, i, after, want)
						}
						checked++
					})
					if next != b.Start-1 {
						t.Fatalf("%s: %s block %d: sweep stopped at %d", prof.Name, p.Routines[ri].Name, b.ID, next+1)
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no instructions checked", prof.Name)
		}
	}
}
