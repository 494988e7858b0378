package opt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/prog"
)

// Report summarizes what the optimizer did.
type Report struct {
	// DeadInstructions counts instructions removed by interprocedural
	// dead-code elimination (Figure 1(a)/(b)).
	DeadInstructions int

	// SpillsRemoved counts store/load instructions removed around
	// calls (Figure 1(c)).
	SpillsRemoved int

	// SaveRestoreRewrites counts callee-saved → caller-saved register
	// reassignments (Figure 1(d)); each deletes one save and one
	// restore per entrance/exit.
	SaveRestoreRewrites int

	// Rounds is the number of analyze-transform iterations that
	// performed work. An already-optimal program reports 0: the
	// optimizer still ran every pass once, but no round changed
	// anything.
	Rounds int

	// Reanalyses counts the re-analyses actually run to keep the
	// summaries consistent with the edits between passes. The edits of
	// the final pass are analyzed only when the caller asks for the
	// result's analysis, so Optimize can report one fewer than
	// OptimizeAnalyzed on the same input.
	Reanalyses int

	// InstructionsBefore and InstructionsAfter measure static code
	// size.
	InstructionsBefore int
	InstructionsAfter  int
}

// Removed returns the total number of instructions deleted.
func (r *Report) Removed() int { return r.InstructionsBefore - r.InstructionsAfter }

func (r *Report) String() string {
	return fmt.Sprintf("opt: %d dead, %d spills removed, %d save/restore rewrites, %d→%d instructions in %d rounds",
		r.DeadInstructions, r.SpillsRemoved, r.SaveRestoreRewrites,
		r.InstructionsBefore, r.InstructionsAfter, r.Rounds)
}

// Options configures the optimizer.
type Options struct {
	// Analysis configures the interprocedural analysis the passes
	// consult. Its Parallelism also sizes the optimizer's own worker
	// pool, and its Metrics registry receives the opt/* counters.
	Analysis core.Config

	// MaxRounds bounds the analyze-transform iterations (default 4).
	MaxRounds int

	// Disable individual passes.
	NoDeadCode     bool
	NoSpillRemoval bool
	NoSaveRestore  bool

	// NoWarmStart re-analyzes from scratch between passes instead of
	// warm-starting with core.Reanalyze. The result is byte-identical
	// (Reanalyze's contract); the knob exists to quantify the warm-start
	// advantage (BenchmarkOptimizeWarmStart), not for production use.
	NoWarmStart bool

	// ConservativeLiveness restricts dead-code elimination to what a
	// traditional compiler could justify: intraprocedural liveness
	// with calling-standard assumptions at every call and exit. Used
	// to model the paper's baseline ("the same highly optimizing
	// back-end"), so the measured improvement is what interprocedural
	// summaries add.
	ConservativeLiveness bool
}

// DefaultOptions returns the standard pipeline configuration.
func DefaultOptions() Options {
	return Options{Analysis: core.DefaultConfig(), MaxRounds: 4}
}

// CompilerOptions returns the baseline pipeline modelling a traditional
// optimizing compiler: dead-code elimination only, justified without
// any interprocedural information.
func CompilerOptions() Options {
	return Options{
		Analysis:             core.DefaultConfig(),
		MaxRounds:            4,
		NoSpillRemoval:       true,
		NoSaveRestore:        true,
		ConservativeLiveness: true,
	}
}

// Optimize clones p and applies the Figure 1 optimizations to the clone
// until a fixed point (or the round budget) is reached. Each pass runs
// against summaries consistent with the current code: the program is
// analyzed once, and every pass's edit set is folded back in with a
// warm-start incremental re-analysis (core.Reanalyze), so a round costs
// O(edits) rather than O(program). A re-analysis runs only when a pass
// is about to read it: the edits of the last pass that changed code are
// returned unanalyzed. Routines are rewritten independently on the
// worker pool (the save/restore pass in callee-first call-graph waves);
// the result is byte-identical at any Analysis.Parallelism.
func Optimize(p *prog.Program, opts Options) (*prog.Program, *Report, error) {
	out, _, rep, err := optimize(p, opts, false)
	return out, rep, err
}

// OptimizeAnalyzed is Optimize, additionally returning the converged
// analysis of the optimized program — the warm-start loop's final
// state, which is exactly what a from-scratch analysis of the result
// would produce. Servers cache it instead of re-solving. Settling the
// final edits costs one re-analysis Optimize skips, so its
// Report.Reanalyses can exceed Optimize's by one.
func OptimizeAnalyzed(p *prog.Program, opts Options) (*prog.Program, *core.Analysis, *Report, error) {
	return optimize(p, opts, true)
}

// optimize runs the analyze-transform loop. With analyzeResult false
// the returned analysis is nil whenever the last pass changed code.
func optimize(p *prog.Program, opts Options, analyzeResult bool) (*prog.Program, *core.Analysis, *Report, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 4
	}
	m := opts.Analysis.Metrics
	workers := opts.Analysis.Workers()
	rep := &Report{InstructionsBefore: p.NumInstructions()}

	// Pre-existing nops are folded away once, before the first
	// analysis, so the warm-start loop only ever compacts its own edit
	// sets.
	cur := cloneProgram(p, workers)
	compactProgram(cur, workers)
	a, err := core.Analyze(cur, core.WithConfig(opts.Analysis))
	if err != nil {
		return nil, nil, nil, err
	}
	// pending is the compacted output of the last pass that changed
	// code, not yet analyzed; settle folds it into a.
	var pending *prog.Program
	settle := func() error {
		if pending == nil {
			return nil
		}
		if opts.NoWarmStart {
			a, err = core.Analyze(pending, core.WithConfig(opts.Analysis))
		} else {
			a, err = core.Reanalyze(a, pending, core.WithConfig(opts.Analysis))
		}
		pending = nil
		rep.Reanalyses++
		return err
	}

	// Pass order matters: the save/restore reassignment (d) and spill
	// removal (c) must see the compiler's patterns before dead-code
	// elimination dismantles them (interprocedural liveness already
	// proves a dead restore deletable, which would leave the paired
	// store behind).
	type pass struct {
		enabled bool
		counter string
		tally   *int
		run     func(a *core.Analysis, e *editSet) int
	}
	passes := []pass{
		{!opts.NoSaveRestore, "opt/saverestore_rewrites", &rep.SaveRestoreRewrites,
			func(a *core.Analysis, e *editSet) int {
				return reassignCalleeSaved(a, e, workers)
			}},
		{!opts.NoSpillRemoval, "opt/spills_removed", &rep.SpillsRemoved,
			func(a *core.Analysis, e *editSet) int {
				return removeCallSpills(a, e, workers)
			}},
		{!opts.NoDeadCode, "opt/dead_instructions", &rep.DeadInstructions,
			func(a *core.Analysis, e *editSet) int {
				return eliminateDeadCode(a, e, opts.ConservativeLiveness, workers)
			}},
	}
	for round := 0; round < opts.MaxRounds; round++ {
		changed := 0
		for _, ps := range passes {
			if !ps.enabled {
				continue
			}
			if err := settle(); err != nil {
				return nil, nil, nil, err
			}
			e := newEditSet(a.Prog, workers)
			n := ps.run(a, e)
			if n == 0 {
				continue
			}
			*ps.tally += n
			changed += n
			m.Counter(ps.counter).Add(uint64(n))
			e.compact()
			pending = e.out
		}
		if changed == 0 {
			break
		}
		rep.Rounds++
	}
	if analyzeResult {
		if err := settle(); err != nil {
			return nil, nil, nil, err
		}
	}
	out := a.Prog
	if pending != nil {
		out, a = pending, nil
	}
	if err := out.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("opt: produced invalid program: %w", err)
	}
	rep.InstructionsAfter = out.NumInstructions()
	m.Counter("opt/rounds").Add(uint64(rep.Rounds))
	m.Counter("opt/reanalyses").Add(uint64(rep.Reanalyses))
	m.Counter("opt/instructions_removed").Add(uint64(rep.Removed()))
	return out, a, rep, nil
}
