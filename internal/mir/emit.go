package mir

import "sync"

// Emitter builds one function's instructions block by block, then Finish
// copies them into a single exact-size arena that every block subslices.
// The per-block buffers are scratch: an Emitter comes from a process-wide
// pool and keeps its grown buffers across functions and compilations, so
// a compile allocates each function's instruction array once, at its
// final size, instead of regrowing a slice per block.
//
// Both producers of instructions use it: package lower while lowering the
// AST, package rsti while re-emitting instrumented code.
type Emitter struct {
	blocks [][]Instr // scratch per block index; blocks[:n] are in use
	hoist  []Instr   // placed first in the entry block by Finish
	n      int
	cur    int
}

var emitters = sync.Pool{New: func() any { return new(Emitter) }}

// NewEmitter returns an empty Emitter. Call Release when done with it.
func NewEmitter() *Emitter { return emitters.Get().(*Emitter) }

// Release empties e and returns it to the pool; e must not be used
// afterwards.
func (e *Emitter) Release() {
	e.reset()
	emitters.Put(e)
}

// SetBlock makes block i the one Emit appends to.
func (e *Emitter) SetBlock(i int) {
	for len(e.blocks) <= i {
		e.blocks = append(e.blocks, nil)
	}
	e.n = max(e.n, i+1)
	e.cur = i
}

// Emit appends in to the current block.
func (e *Emitter) Emit(in Instr) { e.blocks[e.cur] = append(e.blocks[e.cur], in) }

// Hoist queues in for the top of the entry block, ahead of everything
// emitted into it, the way allocas sit at the top of a function.
func (e *Emitter) Hoist(in Instr) { e.hoist = append(e.hoist, in) }

// Terminated reports whether the current block ends in a terminator.
func (e *Emitter) Terminated() bool { return terminated(e.blocks[e.cur]) }

// Finish gives every block of f its instructions: one arena of exactly
// the emitted length, block i's instructions at Blocks[i].Instrs as a
// capacity-capped subslice, so an append to one block reallocates rather
// than bleeding into the next. Hoisted instructions open block 0. f must
// have a block for every index emitted into. e is empty afterwards and
// ready for the next function.
func (e *Emitter) Finish(f *Func) {
	total := len(e.hoist)
	for _, b := range e.blocks[:e.n] {
		total += len(b)
	}
	arena := make([]Instr, total)
	off := copy(arena, e.hoist)
	start := 0
	for i, blk := range f.Blocks {
		if i < e.n {
			off += copy(arena[off:], e.blocks[i])
		}
		blk.Instrs = arena[start:off:off]
		start = off
	}
	e.reset()
}

// reset empties the scratch, zeroing what was used so the pool pins no
// finished program's types or argument arrays.
func (e *Emitter) reset() {
	for i, b := range e.blocks[:e.n] {
		clear(b)
		e.blocks[i] = b[:0]
	}
	clear(e.hoist)
	e.hoist = e.hoist[:0]
	e.n, e.cur = 0, 0
}
