package opt

import (
	"rsti/internal/mir"
	"rsti/internal/sti"
)

// ElidableVars computes the set of variables whose PAC protection can be
// skipped entirely (indexed by VarInfo position). A variable qualifies
// when every way an attacker could make its slot's content observable is
// structurally impossible:
//
//   - it is a local, single-level pointer (globals are writable by any
//     callee; multi-level pointers participate in the CE/FE tagging that
//     signing sites plant, so eliding them would drop tags);
//   - its address is never taken (sti's escape analysis), so no aliasing
//     store or external write can reach the slot outside attack hooks;
//   - every load of it is "freshly stored": on all paths from function
//     entry, a direct store to the variable happens after the most recent
//     call. Attack hooks run only inside calls, so a corrupted slot value
//     is always overwritten before the program can read it back.
//
// The result is mechanism-independent: the criterion speaks only about
// the program's memory behaviour, never about modifiers. It must be
// applied inside the instrumenter (rsti.Options.Elide) so that parameter
// passing and prologue signing agree across call boundaries.
func ElidableVars(prog *mir.Program, an *sti.Analysis) []bool {
	elide := make([]bool, len(prog.Vars))
	for v, info := range prog.Vars {
		elide[v] = !info.Global &&
			info.Type != nil && info.Type.IsPointer() && info.Type.PointerDepth() < 2 &&
			v < len(an.AddrTakenVars) && !an.AddrTakenVars[v]
	}
	for _, fn := range prog.Funcs {
		if !fn.Extern {
			disqualifyTagged(fn, an, elide)
			disqualifyStale(fn, elide)
		}
	}
	return elide
}

// disqualifyTagged clears elide[v] when a value stored to v might carry a
// pointer-to-pointer CE tag (a multi-level pointer cast to a universal
// multi-pointer). The instrumenter plants tags at signing sites; an elided
// slot skips the site, the copy loses its tag, and a later pp_auth through
// it would trap spuriously. Slot types with pointer depth >= 2 are already
// excluded by the candidate filter; this catches deep-typed *values*
// flowing into shallow-typed slots.
func disqualifyTagged(fn *mir.Func, an *sti.Analysis, elide []bool) {
	fo := an.Origins[fn.Name]
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op != mir.Store || in.Slot.Kind != mir.SlotVar {
				continue
			}
			v := in.Slot.Var
			if v < 0 || v >= len(elide) || !elide[v] {
				continue
			}
			if fo == nil || in.B < 0 || in.B >= len(fo.Regs) {
				elide[v] = false
				continue
			}
			o := fo.Regs[in.B]
			if (o.Ty != nil && o.Ty.PointerDepth() >= 2) ||
				(o.Casted && o.CastFrom != nil && o.CastFrom.PointerDepth() >= 2) {
				elide[v] = false
			}
		}
	}
}

// disqualifyStale clears elide[v] for every candidate that fn loads at a
// point where it is not definitely freshly stored since the last call.
// Forward dataflow over the set of freshly-stored variables: stores to a
// named slot add it, calls clear everything (the attack window), and the
// meet over block predecessors is intersection.
func disqualifyStale(fn *mir.Func, elide []bool) {
	n := len(fn.Blocks)
	preds := make([][]int, n)
	for _, blk := range fn.Blocks {
		if len(blk.Instrs) == 0 {
			continue
		}
		t := &blk.Instrs[len(blk.Instrs)-1]
		switch t.Op {
		case mir.Jmp:
			preds[t.Targets[0]] = append(preds[t.Targets[0]], blk.Index)
		case mir.Br:
			preds[t.Targets[0]] = append(preds[t.Targets[0]], blk.Index)
			preds[t.Targets[1]] = append(preds[t.Targets[1]], blk.Index)
		}
	}

	// out[b] is the set of definitely-fresh vars at block exit; nil means
	// "not yet computed" (⊤ for the intersection meet). The entry block
	// starts empty: function entry follows a call, so nothing is fresh.
	// blockIn returns nil (⊤) for a block none of whose predecessors has
	// been computed yet; the fixpoint skips such a block rather than
	// seeding it with ∅, so every entry set only ever shrinks and the
	// iteration terminates.
	out := make([]map[int]bool, n)
	blockIn := func(bi int) map[int]bool {
		if bi == 0 {
			return map[int]bool{}
		}
		var in map[int]bool
		seeded := false
		for _, p := range preds[bi] {
			if out[p] == nil {
				continue // unknown predecessor: optimistic, refined later
			}
			if !seeded {
				in = make(map[int]bool, len(out[p]))
				for v := range out[p] {
					in[v] = true
				}
				seeded = true
				continue
			}
			for v := range in {
				if !out[p][v] {
					delete(in, v)
				}
			}
		}
		return in
	}
	transfer := func(state map[int]bool, in *mir.Instr) {
		switch in.Op {
		case mir.Store:
			if in.Slot.Kind == mir.SlotVar {
				state[in.Slot.Var] = true
			}
		case mir.CallOp:
			for v := range state {
				delete(state, v)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for bi := 0; bi < n; bi++ {
			state := blockIn(bi)
			if state == nil {
				continue
			}
			for ii := range fn.Blocks[bi].Instrs {
				transfer(state, &fn.Blocks[bi].Instrs[ii])
			}
			if !sameSet(out[bi], state) {
				out[bi] = state
				changed = true
			}
		}
	}

	// Verification walk: replay each block from its fixpoint entry state
	// and disqualify any candidate loaded while stale.
	for bi := 0; bi < n; bi++ {
		state := blockIn(bi)
		if state == nil {
			state = map[int]bool{} // unreachable: nothing is fresh
		}
		for ii := range fn.Blocks[bi].Instrs {
			in := &fn.Blocks[bi].Instrs[ii]
			if in.Op == mir.Load && in.Slot.Kind == mir.SlotVar {
				if v := in.Slot.Var; v >= 0 && v < len(elide) && elide[v] && !state[v] {
					elide[v] = false
				}
			}
			transfer(state, in)
		}
	}
}

func sameSet(a, b map[int]bool) bool {
	if a == nil || len(a) != len(b) {
		return a == nil && b == nil
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}
