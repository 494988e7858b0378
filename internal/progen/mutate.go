package progen

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Mutation names one kind of program edit Mutate can apply. The kinds
// model the edits an incremental optimizer sees between analysis runs:
// a routine body changing without its call structure, a call appearing
// or disappearing, a new routine arriving, a block emptied by dead-code
// elimination, and an exit changing kind.
type Mutation int

const (
	// MutBodyEdit replaces one straight-line instruction in one routine
	// with a different straight-line instruction. The callgraph is
	// unchanged; only that routine's dataflow facts can move.
	MutBodyEdit Mutation = iota

	// MutAddCall replaces one straight-line instruction with a direct
	// call to a random routine. The new edge may create recursion; the
	// mutant is still a valid program, though it need not terminate
	// (incremental oracles compare analyses, not executions).
	MutAddCall

	// MutRemoveCall replaces a direct call with a register move,
	// deleting a callgraph edge. Falls back to MutBodyEdit when the
	// chosen routine has no direct calls.
	MutRemoveCall

	// MutAddRoutine appends a small leaf routine at the end of the
	// routine table and redirects one straight-line instruction in an
	// existing routine to call it. Appending (never inserting) keeps
	// every existing routine at its old index, which is what positional
	// incremental diffing assumes.
	MutAddRoutine

	// MutEmptyBlock deletes every instruction of one straight-line
	// block (a block that ends by falling through), the way dead-code
	// elimination plus compaction empties one: branch targets, jump
	// tables, entries and code-address immediates into the routine are
	// remapped, and the blocks after it are renumbered while the PSG
	// keeps its shape. Falls back to MutBodyEdit when no routine has
	// such a block.
	MutEmptyBlock

	// MutExitKind changes an exit's kind in place: an indirect jump
	// with unknown targets becomes a ret, or a ret becomes a halt. The
	// PSG keeps its node count but the exit's kind moves. Falls back to
	// MutBodyEdit when the program has neither.
	MutExitKind

	// NumMutations is the number of mutation kinds.
	NumMutations
)

func (m Mutation) String() string {
	switch m {
	case MutBodyEdit:
		return "body-edit"
	case MutAddCall:
		return "add-call"
	case MutRemoveCall:
		return "remove-call"
	case MutAddRoutine:
		return "add-routine"
	case MutEmptyBlock:
		return "empty-block"
	case MutExitKind:
		return "exit-kind"
	}
	return fmt.Sprintf("mutation(%d)", int(m))
}

// Mutate returns a copy of p with one random single edit applied, plus
// a short description of the edit for test logs. The copy shares
// unedited routines with p by pointer (clone-on-edit), so p must not be
// mutated afterwards while the mutant is live. The same (p,
// seed) pair always yields the same mutant, the mutant always passes
// prog.Validate, and at least one routine's body hash differs from p's
// (or, for MutAddRoutine, the routine table grows). Only MutEmptyBlock
// changes an existing routine's instruction count, and it remaps every
// index into the routine; the other kinds replace instructions in
// place, so entry points, branch targets and jump tables stay valid.
func Mutate(p *prog.Program, seed uint64) (*prog.Program, string) {
	r := newRng(seed)
	return mutate(p, r, Mutation(r.intn(int(NumMutations))))
}

// MutateKind is Mutate restricted to a single mutation kind, for
// benchmarks and tests that need a specific edit shape (e.g. a pure
// body edit to measure best-case incremental re-analysis).
func MutateKind(p *prog.Program, seed uint64, kind Mutation) (*prog.Program, string) {
	r := newRng(seed)
	return mutate(p, r, kind)
}

func mutate(p *prog.Program, r *rng, kind Mutation) (*prog.Program, string) {
	// Shallow-copy the routine table and clone only the routines an edit
	// touches (see editRoutine). Untouched routines stay
	// pointer-identical to p's, which core.Reanalyze exploits to skip
	// rehashing clean bodies.
	m := p.ShallowClone()
	var desc string
	switch kind {
	case MutAddCall:
		desc = mutAddCall(m, p, r)
	case MutRemoveCall:
		desc = mutRemoveCall(m, p, r)
	case MutAddRoutine:
		desc = mutAddRoutine(m, p, r)
	case MutEmptyBlock:
		desc = mutEmptyBlock(m, p, r)
	case MutExitKind:
		desc = mutExitKind(m, p, r)
	default:
		desc = mutBodyEdit(m, p, r)
	}
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("progen: mutant invalid after %s: %v", desc, err))
	}
	return m, desc
}

// editRoutine makes p.Routines[ri] safe to mutate in place: the shared
// pointer from ShallowClone is replaced with a deep copy exactly once.
// Routines added by the mutation itself are already private and are
// returned as-is.
func editRoutine(p *prog.Program, base *prog.Program, ri int) *prog.Routine {
	if ri < len(base.Routines) && p.Routines[ri] == base.Routines[ri] {
		p.Routines[ri] = p.Routines[ri].Clone()
	}
	return p.Routines[ri]
}

// editable reports whether code[i] can be replaced by another
// straight-line instruction without disturbing control flow. Block-end
// instructions (branches, calls, returns) shape the CFG, and the
// program's terminators must stay where they are, so only plain
// instructions qualify. Such an instruction is never the last in a
// routine — validation requires every routine to end in a barrier — so
// a replacement call's fall-through successor always exists.
func editable(in *isa.Instr) bool {
	switch in.Op {
	case isa.OpHalt, isa.OpEntry, isa.OpExit, isa.OpCallSummary:
		return false
	}
	return !in.IsBlockEnd()
}

// pickEditable chooses a uniformly random (routine, instruction) pair
// with an editable instruction, optionally restricted by accept.
// Returns ri = -1 if no routine qualifies.
func pickEditable(p *prog.Program, r *rng, accept func(*isa.Instr) bool) (ri, idx int) {
	if accept == nil {
		accept = editable
	}
	// Reservoir-sample over all qualifying sites so small routines are
	// not over-represented.
	ri, idx, n := -1, -1, 0
	for i, rt := range p.Routines {
		for j := range rt.Code {
			if !accept(&rt.Code[j]) {
				continue
			}
			n++
			if r.intn(n) == 0 {
				ri, idx = i, j
			}
		}
	}
	return ri, idx
}

// freshFiller builds a straight-line instruction guaranteed to differ
// from old, drawing from the generator's filler vocabulary.
func freshFiller(r *rng, old isa.Instr) isa.Instr {
	for {
		var in isa.Instr
		switch r.intn(3) {
		case 0:
			in = isa.LdaImm(valueTemps[r.intn(len(valueTemps))], int64(r.intn(4096)))
		case 1:
			op := fillerOps[r.intn(len(fillerOps))]
			in = isa.Bin(op, valueTemps[r.intn(len(valueTemps))],
				valueTemps[r.intn(len(valueTemps))], valueTemps[r.intn(len(valueTemps))])
		default:
			in = isa.Mov(valueTemps[r.intn(len(valueTemps))], valueTemps[r.intn(len(valueTemps))])
		}
		if in != old {
			return in
		}
	}
}

func mutBodyEdit(p, base *prog.Program, r *rng) string {
	ri, idx := pickEditable(p, r, nil)
	if ri < 0 {
		// Degenerate program with no straight-line code at all; leave a
		// marker mutation by toggling nothing and report it.
		return "body-edit: no editable instruction"
	}
	rt := editRoutine(p, base, ri)
	rt.Code[idx] = freshFiller(r, rt.Code[idx])
	return fmt.Sprintf("body-edit %s@%d", rt.Name, idx)
}

func mutAddCall(p, base *prog.Program, r *rng) string {
	ri, idx := pickEditable(p, r, nil)
	if ri < 0 {
		return "add-call: no editable instruction"
	}
	target := r.intn(len(p.Routines))
	rt := editRoutine(p, base, ri)
	rt.Code[idx] = isa.Jsr(target) // entry selector 0 is always valid
	return fmt.Sprintf("add-call %s@%d -> %s", rt.Name, idx, p.Routines[target].Name)
}

func mutRemoveCall(p, base *prog.Program, r *rng) string {
	ri, idx := pickEditable(p, r, func(in *isa.Instr) bool { return in.Op == isa.OpJsr })
	if ri < 0 {
		// No direct calls anywhere (tiny programs): degrade to a body
		// edit so the mutant still differs from the base.
		return mutBodyEdit(p, base, r)
	}
	rt := editRoutine(p, base, ri)
	old := rt.Code[idx].Target
	rt.Code[idx] = freshFiller(r, rt.Code[idx])
	return fmt.Sprintf("remove-call %s@%d (was -> %s)", rt.Name, idx, p.Routines[old].Name)
}

func mutAddRoutine(p, base *prog.Program, r *rng) string {
	name := fmt.Sprintf("mutant%d", len(p.Routines))
	leaf := &prog.Routine{
		Name:    name,
		Entries: []int{0},
		Code: []isa.Instr{
			isa.Bin(fillerOps[r.intn(len(fillerOps))], valueTemps[0], valueTemps[0], valueTemps[1]),
			isa.Ret(),
		},
	}
	target := len(p.Routines)
	p.Routines = append(p.Routines, leaf)
	p.RebuildIndex()
	ri, idx := pickEditable(p, r, func(in *isa.Instr) bool { return editable(in) })
	if ri == target {
		// Don't make the new routine its own only caller; keep it
		// reachable from pre-existing code when possible.
		ri, idx = -1, -1
		for i := 0; i < target; i++ {
			rt := p.Routines[i]
			for j := range rt.Code {
				if editable(&rt.Code[j]) {
					ri, idx = i, j
					break
				}
			}
			if ri >= 0 {
				break
			}
		}
	}
	if ri >= 0 {
		editRoutine(p, base, ri).Code[idx] = isa.Jsr(target)
		return fmt.Sprintf("add-routine %s, called from %s@%d", name, p.Routines[ri].Name, idx)
	}
	return fmt.Sprintf("add-routine %s (unreachable)", name)
}

func mutEmptyBlock(p, base *prog.Program, r *rng) string {
	// Reservoir-sample a block that falls through to its successor,
	// holds only straight-line instructions and is not an entrance.
	ri, lo, hi, n := -1, 0, 0, 0
	for i := range p.Routines {
		g := cfg.Build(p, i)
		entry := make(map[int]bool, len(p.Routines[i].Entries))
		for _, e := range p.Routines[i].Entries {
			entry[e] = true
		}
		for _, b := range g.Blocks {
			if b.Term != cfg.TermFall || entry[b.Start] || b.End >= len(p.Routines[i].Code) {
				continue
			}
			ok := true
			for j := b.Start; j < b.End && ok; j++ {
				ok = editable(&p.Routines[i].Code[j])
			}
			if !ok {
				continue
			}
			n++
			if r.intn(n) == 0 {
				ri, lo, hi = i, b.Start, b.End
			}
		}
	}
	if ri < 0 {
		return mutBodyEdit(p, base, r)
	}
	k := hi - lo
	// idx maps an old instruction index to its new one: the deleted
	// block's instructions map to the instruction that followed it.
	idx := func(i int) int {
		switch {
		case i < lo:
			return i
		case i < hi:
			return lo
		}
		return i - k
	}
	rt := editRoutine(p, base, ri)
	rt.Code = append(rt.Code[:lo:lo], rt.Code[hi:]...)
	for i := range rt.Code {
		if in := &rt.Code[i]; in.Op.IsBranch() && in.Op != isa.OpJmp {
			in.Target = idx(in.Target)
		}
	}
	for _, t := range rt.Tables {
		for j := range t {
			t[j] = idx(t[j])
		}
	}
	for e := range rt.Entries {
		rt.Entries[e] = idx(rt.Entries[e])
	}
	for i := range p.Routines {
		for j := range p.Routines[i].Code {
			in := &p.Routines[i].Code[j]
			if in.Op != isa.OpLda {
				continue
			}
			if tri, tinstr, ok := prog.DecodeAddr(in.Imm); ok && tri == ri && idx(tinstr) != tinstr {
				editRoutine(p, base, i).Code[j].Imm = prog.CodeAddr(ri, idx(tinstr))
			}
		}
	}
	return fmt.Sprintf("empty-block %s@%d..%d", rt.Name, lo, hi)
}

func mutExitKind(p, base *prog.Program, r *rng) string {
	// Unknown-target jumps are rare next to rets, so the two edits are
	// drawn with equal odds whenever the program has both.
	isJmp := func(in *isa.Instr) bool { return in.Op == isa.OpJmp && in.Table == isa.UnknownTable }
	isRet := func(in *isa.Instr) bool { return in.Op == isa.OpRet }
	first, second := isJmp, isRet
	if r.intn(2) == 0 {
		first, second = isRet, isJmp
	}
	ri, idx := pickEditable(p, r, first)
	if ri < 0 {
		ri, idx = pickEditable(p, r, second)
	}
	if ri < 0 {
		return mutBodyEdit(p, base, r)
	}
	rt := editRoutine(p, base, ri)
	if rt.Code[idx].Op == isa.OpRet {
		rt.Code[idx] = isa.Halt()
		return fmt.Sprintf("exit-kind %s@%d ret -> halt", rt.Name, idx)
	}
	rt.Code[idx] = isa.Ret()
	return fmt.Sprintf("exit-kind %s@%d jmp ? -> ret", rt.Name, idx)
}
