package opt

import (
	"rsti/internal/mir"
	"rsti/internal/sti"
)

// factKey identifies one algebraic PAC fact: "the value in register src
// is pac(raw, key, mod ^ [loc])" for a known raw register. The location
// register is part of the key, which is exactly the per-mechanism gating
// table in the package comment: under STL every slot access carries its
// address register, so only exact-slot matches coalesce; mechanisms
// without location binding carry NoReg and match on (src, key, mod).
type factKey struct {
	src mir.Reg
	key uint8
	mod uint64
	loc mir.Reg
}

// state is the dataflow lattice value: available PAC facts plus, for
// store-to-load forwarding, the register last stored to each
// non-address-taken named slot.
type state struct {
	facts map[factKey]mir.Reg // fact -> register holding the raw value
	slots map[int]mir.Reg     // VarInfo index -> register last stored
	// forwarded marks facts that exist only because of store-to-load
	// forwarding — attribution metadata for Stats, never part of the
	// lattice value (equal ignores it; intersect keeps it best-effort).
	forwarded map[factKey]bool
}

func newState() *state {
	return &state{facts: map[factKey]mir.Reg{}, slots: map[int]mir.Reg{}}
}

func (s *state) clone() *state {
	c := &state{
		facts: make(map[factKey]mir.Reg, len(s.facts)),
		slots: make(map[int]mir.Reg, len(s.slots)),
	}
	for k, v := range s.facts {
		c.facts[k] = v
	}
	for k, v := range s.slots {
		c.slots[k] = v
	}
	if s.forwarded != nil {
		c.forwarded = make(map[factKey]bool, len(s.forwarded))
		for k := range s.forwarded {
			c.forwarded[k] = true
		}
	}
	return c
}

// intersect keeps only the facts present (with equal values) in both.
func (s *state) intersect(o *state) {
	for k, v := range s.facts {
		if ov, ok := o.facts[k]; !ok || ov != v {
			delete(s.facts, k)
		}
	}
	for k, v := range s.slots {
		if ov, ok := o.slots[k]; !ok || ov != v {
			delete(s.slots, k)
		}
	}
}

func (s *state) equal(o *state) bool {
	if o == nil || len(s.facts) != len(o.facts) || len(s.slots) != len(o.slots) {
		return false
	}
	for k, v := range s.facts {
		if ov, ok := o.facts[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range s.slots {
		if ov, ok := o.slots[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// clear drops everything — the transfer of a call instruction. Register
// facts would actually survive a call (callees and attack hooks can
// touch memory, never this frame's registers), but dropping them keeps
// the pass inside the paper's "no intervening write/escape/call"
// formulation and keeps every elision argument local to a call-free
// region.
func (s *state) clear() {
	for k := range s.facts {
		delete(s.facts, k)
	}
	for k := range s.slots {
		delete(s.slots, k)
	}
}

// killDef removes every fact involving register d, which is about to be
// redefined (loop back-edges re-execute defining instructions).
func (s *state) killDef(d mir.Reg) {
	for k, v := range s.facts {
		if k.src == d || k.loc == d || v == d {
			delete(s.facts, k)
		}
	}
	for k, v := range s.slots {
		if v == d {
			delete(s.slots, k)
		}
	}
}

// Optimize runs redundant-authentication elimination over an instrumented
// program in place and reports what it removed. The mechanism selects the
// gating documented in the package comment; it changes no pass decision
// directly — STL/Adaptive restrictions are enforced by the location
// register embedded in each fact key.
func Optimize(prog *mir.Program, mech sti.Mechanism) *Stats {
	stats := &Stats{}
	if mech == sti.None {
		return stats
	}
	addrTaken := addrTakenVars(prog)
	for _, fn := range prog.Funcs {
		if fn.Extern {
			continue
		}
		var fs Stats
		optimizeFunc(fn, addrTaken, &fs)
		stats.add(&fs)
	}
	return stats
}

// addrTakenVars recomputes the address-taken variable set from the
// instrumented program: a variable is forwardable only if no slot address
// of it ever escapes into data flow (stores of an Alloca/GlobalAddr
// result, casts, arithmetic, calls). This is deliberately recomputed here
// rather than taken from sti.Analysis so the pass stays sound against the
// program it actually rewrites.
func addrTakenVars(prog *mir.Program) []bool {
	taken := make([]bool, len(prog.Vars))
	for _, fn := range prog.Funcs {
		if fn.Extern {
			continue
		}
		// slotOf maps a register holding a named slot address to its var.
		slotOf := map[mir.Reg]int{}
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				switch in.Op {
				case mir.Alloca:
					if in.Slot.Kind == mir.SlotVar {
						slotOf[in.Dst] = in.Slot.Var
					}
				case mir.GlobalAddr:
					if in.Slot.Kind == mir.SlotVar {
						slotOf[in.Dst] = in.Slot.Var
					}
				}
			}
		}
		mark := func(r mir.Reg) {
			if v, ok := slotOf[r]; ok {
				taken[v] = true
			}
		}
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				switch in.Op {
				case mir.Load:
					// Using the slot address as the access target is the
					// normal pattern, not an escape.
				case mir.Store:
					mark(in.B) // storing the address escapes it
				case mir.CallOp:
					for _, a := range in.Args {
						mark(a)
					}
					mark(in.A)
				case mir.PacSign, mir.PacAuth:
					// A is the value being signed; B is the location
					// operand (normal use, not an escape).
					mark(in.A)
				case mir.FieldAddr, mir.IndexAddr, mir.BinInstr, mir.CmpInstr,
					mir.CastOp, mir.RetOp, mir.PacStrip, mir.PPSign, mir.PPAuth, mir.PPAddTBI:
					mark(in.A)
					mark(in.B)
				}
			}
		}
	}
	return taken
}

// optimizeFunc analyzes and rewrites one function.
func optimizeFunc(fn *mir.Func, addrTaken []bool, stats *Stats) {
	// Structural precondition: registers are textually single-assignment
	// (the lowerer and instrumenter allocate monotonically). defPos also
	// feeds the use-before-def guard: a register used textually before its
	// definition (only reachable through a back edge) must never be
	// renamed away, since its earlier uses are emitted before the rewrite
	// reaches the definition.
	defPos := make(map[mir.Reg]int)
	pos := 0
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if d := in.Dst; d != mir.NoReg && writesDst(in.Op) {
				if _, dup := defPos[d]; dup {
					stats.SkippedFuncs++
					return
				}
				defPos[d] = pos
			}
			pos++
		}
	}
	noElide := make(map[mir.Reg]bool)
	pos = 0
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			forEachUse(in, func(r mir.Reg) {
				if dp, ok := defPos[r]; ok && pos < dp {
					noElide[r] = true
				}
			})
			pos++
		}
	}

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

	// Availability fixpoint on the original program. nil out = ⊤; the
	// entry block starts with nothing available. The first computed value
	// of any block overestimates (intersection over the computed subset of
	// predecessors), and iteration only shrinks it, so this terminates.
	// blockIn returns nil (⊤) while no predecessor has been computed, and
	// the fixpoint skips that block: seeding it with ∅ (⊥) instead would
	// let its entry set grow on a later pass and the loop never settle.
	out := make([]*state, n)
	blockIn := func(bi int) *state {
		if bi == 0 {
			return newState()
		}
		var in *state
		for _, p := range preds[bi] {
			if out[p] == nil {
				continue
			}
			if in == nil {
				in = out[p].clone()
			} else {
				in.intersect(out[p])
			}
		}
		return in
	}
	for changed := true; changed; {
		changed = false
		for bi := 0; bi < n; bi++ {
			st := blockIn(bi)
			if st == nil {
				continue
			}
			for i := range fn.Blocks[bi].Instrs {
				transfer(st, &fn.Blocks[bi].Instrs[i], addrTaken, nil)
			}
			if out[bi] == nil || !st.equal(out[bi]) {
				out[bi] = st
				changed = true
			}
		}
	}

	// Rewrite walk. subst maps deleted PacAuth destinations to the
	// equal-valued register that replaces them; pinned registers are ones
	// already emitted as a replacement, whose definitions must stay.
	subst := make(map[mir.Reg]mir.Reg)
	pinned := make(map[mir.Reg]bool)
	resolve := func(r mir.Reg) mir.Reg {
		if s, ok := subst[r]; ok {
			return s
		}
		return r
	}
	for bi := 0; bi < n; bi++ {
		blk := fn.Blocks[bi]
		st := blockIn(bi)
		if st == nil {
			st = newState() // unreachable: nothing is available
		}
		kept := blk.Instrs[:0]
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			substUses(in, resolve)
			if in.Op == mir.PacAuth && !noElide[in.Dst] {
				k := factKey{src: in.A, key: in.Key, mod: in.Mod, loc: in.B}
				if raw, ok := st.facts[k]; ok {
					raw = resolve(raw)
					// Never remove the definition a previous rename
					// points at.
					if !pinned[in.Dst] {
						subst[in.Dst] = raw
						pinned[raw] = true
						stats.RedundantAuths++
						if st.forwarded[k] {
							stats.ForwardedLoads++
						}
						// The fact the deleted auth would generate is
						// already present (that is why it is deletable);
						// no state update needed beyond the transfer of
						// a no-op.
						continue
					}
				}
			}
			transfer(st, in, addrTaken, subst)
			kept = append(kept, *in)
		}
		blk.Instrs = kept
	}
}

// transfer updates st across one instruction. When subst is non-nil the
// walk is the rewrite pass: instruction operands have already been
// renamed, so generated facts are keyed on live registers.
func transfer(st *state, in *mir.Instr, addrTaken []bool, subst map[mir.Reg]mir.Reg) {
	if in.Dst != mir.NoReg && writesDst(in.Op) {
		st.killDef(in.Dst)
	}
	switch in.Op {
	case mir.CallOp:
		st.clear()
	case mir.PacSign:
		// Dst = pac(A): authenticating Dst with the same key/mod/loc
		// yields A again.
		st.addFact(factKey{src: in.Dst, key: in.Key, mod: in.Mod, loc: in.B}, in.A, false)
	case mir.PacAuth:
		// Dst = aut(A): A holds pac(Dst) under this key/mod/loc.
		st.addFact(factKey{src: in.A, key: in.Key, mod: in.Mod, loc: in.B}, in.Dst, false)
	case mir.Store:
		if v := in.Slot.Var; in.Slot.Kind == mir.SlotVar && v >= 0 && v < len(addrTaken) && !addrTaken[v] {
			st.slots[v] = in.B
		}
	case mir.Load:
		if v := in.Slot.Var; in.Slot.Kind == mir.SlotVar && v >= 0 && v < len(addrTaken) && !addrTaken[v] {
			if src, ok := st.slots[v]; ok {
				// Store-to-load forwarding: the loaded register holds
				// bit-for-bit the stored one (no aliasing write can touch
				// a non-address-taken slot, and calls cleared st). Every
				// PAC fact about the stored register transfers.
				for k, raw := range st.facts {
					if k.src == src {
						nk := k
						nk.src = in.Dst
						st.addFact(nk, raw, true)
					}
				}
			}
		}
	}
}

// addFact records a fact; forwarded marks facts created by store-to-load
// forwarding (for Stats attribution only).
func (s *state) addFact(k factKey, raw mir.Reg, fwd bool) {
	s.facts[k] = raw
	if fwd {
		if s.forwarded == nil {
			s.forwarded = map[factKey]bool{}
		}
		s.forwarded[k] = true
	} else if s.forwarded != nil {
		delete(s.forwarded, k)
	}
}

// writesDst reports whether op's Dst field is a register definition.
func writesDst(op mir.Op) bool {
	switch op {
	case mir.Store, mir.RetOp, mir.Jmp, mir.Br, mir.PPAdd, mir.Nop:
		return false
	}
	return true
}

// forEachUse invokes f on every register operand in that is read (never
// the Dst definition), respecting per-op operand semantics.
func forEachUse(in *mir.Instr, f func(mir.Reg)) {
	use := func(r mir.Reg) {
		if r != mir.NoReg {
			f(r)
		}
	}
	switch in.Op {
	case mir.Load, mir.FieldAddr, mir.CastOp, mir.RetOp, mir.Br, mir.PacStrip, mir.PPAddTBI:
		use(in.A)
	case mir.Store, mir.IndexAddr, mir.BinInstr, mir.CmpInstr,
		mir.PacSign, mir.PacAuth, mir.PPSign, mir.PPAuth:
		use(in.A)
		use(in.B)
	case mir.CallOp:
		if in.Callee == "" {
			use(in.A)
		}
		for _, a := range in.Args {
			use(a)
		}
	}
}

// substUses rewrites every read operand of in through resolve.
func substUses(in *mir.Instr, resolve func(mir.Reg) mir.Reg) {
	sub := func(r mir.Reg) mir.Reg {
		if r == mir.NoReg {
			return r
		}
		return resolve(r)
	}
	switch in.Op {
	case mir.Load, mir.FieldAddr, mir.CastOp, mir.RetOp, mir.Br, mir.PacStrip, mir.PPAddTBI:
		in.A = sub(in.A)
	case mir.Store, mir.IndexAddr, mir.BinInstr, mir.CmpInstr,
		mir.PacSign, mir.PacAuth, mir.PPSign, mir.PPAuth:
		in.A = sub(in.A)
		in.B = sub(in.B)
	case mir.CallOp:
		if in.Callee == "" {
			in.A = sub(in.A)
		}
		for i, a := range in.Args {
			in.Args[i] = sub(a)
		}
	}
}
