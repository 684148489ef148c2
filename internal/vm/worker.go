package vm

import (
	"rsti/internal/mir"
	"rsti/internal/pa"
)

// WorkerState is the per-worker reusable hot-path state of a long-lived
// execution service: the call-frame pool, the keyed PA units with their
// warm PAC memoization caches, a resident machine slot, and a reusable
// output buffer. A Machine normally owns this state itself and discards
// it when the run ends; an engine worker that executes many runs back to
// back hands the same WorkerState to every Machine it builds, so
// steady-state serving allocates no frames and keeps the PAC cache warm
// across runs.
//
// A WorkerState is NOT safe for concurrent use: it must be owned by
// exactly one goroutine (the engine worker), and the Machines built from
// it must run sequentially. Results are bit-identical with or without
// reuse — the frame pool zeroes registers on reuse and the PAC cache can
// only skip recomputing, never change, a PAC (see pa.Unit).
type WorkerState struct {
	frames     []*frame
	argScratch []uint64
	units      map[unitKey]*pa.Unit

	// mach is the worker's resident machine, rebound by MachineFor for
	// every run whatever program it executes. One machine, not a keyed
	// cache: it pins its full Memory (megabytes), and a serving worker's
	// traffic rotates across many programs and mechanisms, so the machine
	// is reused across programs rather than rebuilt on each switch.
	mach *Machine

	// outBuf is the reusable output capture buffer, loaned out via
	// OutputBuffer and returned (possibly grown) via StowOutputBuffer.
	outBuf []byte
}

// unitKey identifies a PA unit by everything that determines its keys and
// layout; pa.Config has only comparable fields.
type unitKey struct {
	cfg  pa.Config
	seed uint64
}

// NewWorkerState returns an empty WorkerState.
func NewWorkerState() *WorkerState {
	return &WorkerState{units: make(map[unitKey]*pa.Unit)}
}

// unit returns the worker's PA unit for (cfg, seed), building it on first
// use. Key generation is deterministic, so reusing the unit (and its warm
// PAC cache) across runs changes no signed or authenticated value.
func (ws *WorkerState) unit(cfg pa.Config, seed uint64) *pa.Unit {
	k := unitKey{cfg: cfg, seed: seed}
	if u, ok := ws.units[k]; ok {
		return u
	}
	u := pa.NewUnit(cfg, pa.GenerateKeys(seed))
	ws.units[k] = u
	return u
}

// MachineFor returns the worker's resident machine (built on first use)
// bound to run prog under opts. Binding reuses the machine's memory,
// site-cache and map storage for any program and configuration, so once
// the worker has seen its largest image and memory sizes a run allocates
// nothing — see Machine.bind for the isolation argument. opts.Image should
// be the shared image for prog; without one, bind predecodes privately.
// The returned machine is valid until the worker's next MachineFor.
func (ws *WorkerState) MachineFor(prog *mir.Program, opts Options) *Machine {
	if ws.mach == nil {
		ws.mach = &Machine{ws: ws}
	}
	ws.mach.bind(prog, opts)
	return ws.mach
}

// OutputBuffer loans out the worker's reusable output buffer (length 0,
// warm capacity). Pair with StowOutputBuffer when the run's output has
// been consumed.
func (ws *WorkerState) OutputBuffer() []byte { return ws.outBuf[:0] }

// StowOutputBuffer returns a buffer obtained from OutputBuffer (possibly
// reallocated by appends) to the worker for the next run.
func (ws *WorkerState) StowOutputBuffer(b []byte) { ws.outBuf = b }
