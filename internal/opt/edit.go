package opt

import (
	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/prog"
)

// editSet is a copy-on-write view of one pass's output program. The
// base program (the one the current analysis was computed over) is
// never mutated: the first edit to a routine replaces the shared
// *Routine pointer in a shallow program clone with a private deep copy.
// Routines a pass leaves alone stay pointer-identical to the base, so
// core.Reanalyze can prove them clean without rehashing — that identity
// is what makes a round cost O(edits) instead of O(program).
type editSet struct {
	base  *prog.Program
	out   *prog.Program
	dirty []bool

	// workers sizes compact's worker pool.
	workers int
}

func newEditSet(base *prog.Program, workers int) *editSet {
	return &editSet{
		base:    base,
		out:     base.ShallowClone(),
		dirty:   make([]bool, len(base.Routines)),
		workers: workers,
	}
}

// routine returns a writable clone of routine ri, cloning on first use.
// Distinct routines may be requested from concurrent workers: each
// index is written by at most one goroutine (the passes hand each
// routine to exactly one worker), so the slice writes never race.
func (e *editSet) routine(ri int) *prog.Routine {
	if !e.dirty[ri] {
		e.out.Routines[ri] = e.base.Routines[ri].Clone()
		e.dirty[ri] = true
	}
	return e.out.Routines[ri]
}

// Compact removes every nop from the program in place, remapping
// branch targets, jump tables, routine entries and code-address
// immediates (function pointers and computed-goto targets carry the
// prog.AddrTag bit). It returns the number of instructions removed.
func Compact(p *prog.Program) int {
	return compactProgram(p, 1)
}

// compactProgram is Compact with the routines spread over workers.
func compactProgram(p *prog.Program, workers int) int {
	// An edit set over p itself with every routine already "cloned":
	// compact then rewrites p's own routines.
	e := &editSet{base: p, out: p, dirty: make([]bool, len(p.Routines)), workers: workers}
	for ri := range e.dirty {
		e.dirty[ri] = true
	}
	return e.compact()
}

// cloneProgram is p.Clone with the routines deep-copied on the worker
// pool.
func cloneProgram(p *prog.Program, workers int) *prog.Program {
	c := p.ShallowClone()
	par.ForEach(len(c.Routines), workers, func(ri int) {
		c.Routines[ri] = c.Routines[ri].Clone()
	})
	return c
}

// compact removes the nops a pass left in its edited routines,
// remapping branch targets, jump tables, entries and cross-routine
// code-address immediates — scoped to the edit set, so untouched
// routines keep their pointer identity. A clean routine is cloned only
// when it holds a code-address immediate into a routine whose
// instruction indices shifted. Returns the number of instructions
// removed.
func (e *editSet) compact() int {
	// shifted[ri] is the old→new index map of a compacted routine, nil
	// when ri's indices did not move. Each routine is filtered by one
	// worker, which writes only its own slots.
	shifted := make([][]int, len(e.out.Routines))
	removedBy := make([]int, len(e.out.Routines))
	par.ForEach(len(e.out.Routines), e.workers, func(ri int) {
		if !e.dirty[ri] {
			return
		}
		r := e.out.Routines[ri]
		idx := make([]int, len(r.Code)+1)
		n := 0
		for i := range r.Code {
			idx[i] = n
			if r.Code[i].Op != isa.OpNop {
				n++
			}
		}
		idx[len(r.Code)] = n
		if n == len(r.Code) {
			return
		}
		removedBy[ri] = len(r.Code) - n
		shifted[ri] = idx
		// The routine is writable (a private clone, or Compact's own
		// program): filter in place.
		out := r.Code[:0]
		for i := range r.Code {
			if r.Code[i].Op == isa.OpNop {
				continue
			}
			in := r.Code[i]
			if in.Op.IsBranch() && in.Op != isa.OpJmp {
				in.Target = idx[in.Target]
			}
			out = append(out, in)
		}
		r.Code = out
		for ti := range r.Tables {
			for k := range r.Tables[ti] {
				r.Tables[ti][k] = idx[r.Tables[ti][k]]
			}
		}
		for en := range r.Entries {
			r.Entries[en] = idx[r.Entries[en]]
		}
	})
	removed := sum(removedBy)
	if removed == 0 {
		return 0
	}
	// Code-address immediates (function pointers, computed-goto
	// targets) may point into a compacted routine from anywhere; the
	// immediates still encode pre-compaction indices, so the idx maps
	// apply uniformly — including to Ldas inside routines compacted
	// above. A routine is cloned (e.routine) only by the worker scanning
	// it.
	par.ForEach(len(e.out.Routines), e.workers, func(ri int) {
		r := e.out.Routines[ri]
		for i := range r.Code {
			in := &r.Code[i]
			if in.Op != isa.OpLda {
				continue
			}
			tri, tinstr, ok := prog.DecodeAddr(in.Imm)
			if !ok || tri >= len(shifted) || shifted[tri] == nil || tinstr >= len(shifted[tri]) {
				continue
			}
			ni := shifted[tri][tinstr]
			if ni == tinstr {
				continue
			}
			w := e.routine(ri)
			w.Code[i].Imm = prog.CodeAddr(tri, ni)
			r = w
		}
	})
	return removed
}
