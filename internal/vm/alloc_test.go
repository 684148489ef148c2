package vm

import (
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/lower"
	"rsti/internal/mir"
	"rsti/internal/rsti"
	"rsti/internal/sti"
)

// allocBenchSrc is a pointer-chasing workload chosen for what it does NOT
// do on the host side: no printf (the formatting builtins allocate) and no
// exit() (the exit sentinel allocates). It still exercises everything the
// zero-allocation contract covers — struct field traffic through
// authenticated pointers (the fused superinstructions and their
// monomorphic site caches), bump allocation, calls deep enough to cycle
// the frame pool.
const allocBenchSrc = `
struct node { int v; struct node *next; };

int sum(struct node *p) {
	int s = 0;
	while (p != 0) {
		s = s + p->v;
		p = p->next;
	}
	return s;
}

int main(void) {
	struct node *head = 0;
	int i = 0;
	while (i < 64) {
		struct node *n = (struct node *)malloc(16);
		n->v = i;
		n->next = head;
		head = n;
		i = i + 1;
	}
	int r = 0;
	int k = 0;
	while (k < 200) {
		r = r + sum(head);
		k = k + 1;
	}
	return r & 255;
}
`

// allocBenchProg lowers and STC-instruments the allocation workload, so
// the measured run path includes pac/aut traffic and fused groups, not
// just plain arithmetic.
func allocBenchProg(t testing.TB) *mir.Program { return stcProg(t, allocBenchSrc) }

// stcProg lowers and STC-instruments src.
func stcProg(t testing.TB, src string) *mir.Program {
	t.Helper()
	f, err := cminor.Frontend(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	inst, _, err := rsti.Instrument(prog, sti.Analyze(prog), sti.STC)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	return inst
}

// resident is a worker holding one machine the way a steady-state engine
// worker does; next rebinds that machine for another run of prog.
type resident struct {
	ws   *WorkerState
	prog *mir.Program
	opts Options
}

func (r resident) next() *Machine { return r.ws.MachineFor(r.prog, r.opts) }

// residentMachine gives a fresh worker a resident machine for prog (shared
// image) and performs one warmup run, so every pool (frames, arg scratch,
// tier bodies) reaches capacity.
func residentMachine(t testing.TB, prog *mir.Program, tier bool) resident {
	t.Helper()
	opts := DefaultOptions()
	opts.Image = NewImage(prog)
	opts.Tier = tier
	opts.TierThreshold = testTierThreshold
	r := resident{ws: NewWorkerState(), prog: prog, opts: opts}
	if _, err := r.next().Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	return r
}

// measureAllocs reports the average heap allocations of one steady-state
// MachineFor+Run cycle and asserts every measured run reproduces the
// reference run's exit value and modelled stats bit-for-bit.
func measureAllocs(t *testing.T, r resident) float64 {
	t.Helper()
	m := r.next()
	wantExit, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantStats := modelled(m.Stats)
	return testing.AllocsPerRun(10, func() {
		m := r.next()
		exit, err := m.Run()
		if err != nil {
			t.Fatalf("measured run: %v", err)
		}
		if exit != wantExit {
			t.Fatalf("measured run exit = %d, want %d", exit, wantExit)
		}
		if got := modelled(m.Stats); got != wantStats {
			t.Fatalf("measured run modelled stats diverged:\n got %+v\nwant %+v", got, wantStats)
		}
	})
}

// TestAllocBudgetInterpreter pins the tentpole contract on the switch
// interpreter: a steady-state MachineFor+Run of an instrumented workload
// performs zero heap allocations.
func TestAllocBudgetInterpreter(t *testing.T) {
	r := residentMachine(t, allocBenchProg(t), false)
	if n := measureAllocs(t, r); n != 0 {
		t.Fatalf("interpreter steady-state Run allocates %.1f times per run, want 0", n)
	}
}

// TestAllocBudgetTier pins the same contract on the direct-threaded tier:
// after the warmup run promotes the hot functions, executing the compiled
// closure chains allocates nothing.
func TestAllocBudgetTier(t *testing.T) {
	r := residentMachine(t, allocBenchProg(t), true)
	if ts := r.opts.Image.TierStats(); ts.Promotions == 0 {
		t.Fatalf("tier never promoted during warmup (threshold %d)", testTierThreshold)
	}
	if n := measureAllocs(t, r); n != 0 {
		t.Fatalf("tier steady-state Run allocates %.1f times per run, want 0", n)
	}
}

// TestAllocBudgetWorkerReuse pins the serving-side entry point: a
// WorkerState hands back its resident machine on every MachineFor, and
// the cycle allocates nothing once warm. A run under a bigger heap then
// rebinds the same machine, whose results must still equal a fresh
// machine's under that configuration.
func TestAllocBudgetWorkerReuse(t *testing.T) {
	prog := allocBenchProg(t)
	opts := DefaultOptions()
	opts.Image = NewImage(prog)
	ws := NewWorkerState()

	m := ws.MachineFor(prog, opts)
	if _, err := m.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	if again := ws.MachineFor(prog, opts); again != m {
		t.Fatalf("MachineFor rebuilt instead of reusing the resident machine")
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("second warmup run: %v", err)
	}
	n := testing.AllocsPerRun(10, func() {
		mm := ws.MachineFor(prog, opts)
		if _, err := mm.Run(); err != nil {
			t.Fatalf("measured run: %v", err)
		}
	})
	if n != 0 {
		t.Fatalf("worker-reuse steady-state MachineFor+Run allocates %.1f times per run, want 0", n)
	}

	bigger := opts
	bigger.HeapSize *= 2
	fresh := New(prog, bigger)
	wantExit, err := fresh.Run()
	if err != nil {
		t.Fatalf("fresh run under the bigger heap: %v", err)
	}
	other := ws.MachineFor(prog, bigger)
	if got := len(other.Mem.segs[2].data); got != bigger.HeapSize {
		t.Fatalf("rebound heap is %d bytes, want %d", got, bigger.HeapSize)
	}
	exit, err := other.Run()
	if err != nil {
		t.Fatalf("resident run under the bigger heap: %v", err)
	}
	if exit != wantExit || modelled(other.Stats) != modelled(fresh.Stats) {
		t.Fatalf("resident run under the bigger heap = (%d, %+v), fresh machine = (%d, %+v)",
			exit, modelled(other.Stats), wantExit, modelled(fresh.Stats))
	}
}

// switchSrc differs from allocBenchSrc in every dimension bind re-sizes:
// a large globals segment, string constants, and a different number of
// fused access sites.
const switchSrc = `
struct pair { long a; struct pair *p; };
long table[512];
char *tag;
struct pair *g;

int main(void) {
	tag = "switch";
	g = (struct pair *)malloc(16);
	g->a = 3;
	g->p = g;
	int i = 0;
	while (i < 512) {
		table[i] = g->p->a + i;
		i = i + 1;
	}
	return (int)(table[511] + tag[0]) & 255;
}
`

// TestAllocBudgetProgramSwitch pins the contract on a worker whose
// traffic alternates between two programs with different globals,
// strings and site counts: once the resident machine has grown to the
// larger of each, rebinding it across the switch allocates nothing, and
// every run stays bit-identical to its warmup.
func TestAllocBudgetProgramSwitch(t *testing.T) {
	a, b := allocBenchProg(t), stcProg(t, switchSrc)
	imgA, imgB := NewImage(a), NewImage(b)
	if imgA.gsize == imgB.gsize || imgA.ssize == imgB.ssize || imgA.sites == imgB.sites {
		t.Fatalf("programs must differ in globals, strings and sites: A (%d, %d, %d), B (%d, %d, %d)",
			imgA.gsize, imgA.ssize, imgA.sites, imgB.gsize, imgB.ssize, imgB.sites)
	}
	for _, tier := range []bool{false, true} {
		ws := NewWorkerState()
		optsFor := func(img *Image) Options {
			o := DefaultOptions()
			o.Image, o.Tier, o.TierThreshold = img, tier, testTierThreshold
			return o
		}
		progs := []*mir.Program{a, b}
		opts := []Options{optsFor(imgA), optsFor(imgB)}
		wantExit := make([]int64, 2)
		wantStats := make([]Stats, 2)
		for round := 0; round < 2; round++ {
			for i := range progs {
				m := ws.MachineFor(progs[i], opts[i])
				exit, err := m.Run()
				if err != nil {
					t.Fatalf("tier=%v warmup run %d: %v", tier, i, err)
				}
				wantExit[i], wantStats[i] = exit, modelled(m.Stats)
			}
		}
		n := testing.AllocsPerRun(10, func() {
			for i := range progs {
				m := ws.MachineFor(progs[i], opts[i])
				exit, err := m.Run()
				if err != nil {
					t.Fatalf("tier=%v measured run %d: %v", tier, i, err)
				}
				if exit != wantExit[i] || modelled(m.Stats) != wantStats[i] {
					t.Fatalf("tier=%v run %d after a switch = (%d, %+v), want (%d, %+v)",
						tier, i, exit, modelled(m.Stats), wantExit[i], wantStats[i])
				}
			}
		})
		if n != 0 {
			t.Fatalf("tier=%v: switching MachineFor+Run allocates %.1f times per pair of runs, want 0", tier, n)
		}
	}
}

// poisonByte is the sentinel the recycling tests smear over released
// state. 0xA5 survives neither a correct zeroing nor a correct overwrite,
// so any byte of it visible after re-acquisition is a leak.
const poisonByte = 0xA5

const poisonWord = 0xA5A5A5A5A5A5A5A5

// TestFramePoisoning poisons every pooled frame between runs — registers,
// vars scratch, stack watermark — and requires the next run to be
// bit-identical to an unpoisoned one: frame recycling must never leak one
// run's register contents into the next (multi-tenant isolation).
func TestFramePoisoning(t *testing.T) {
	r := residentMachine(t, allocBenchProg(t), false)

	m := r.next()
	wantExit, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantStats := modelled(m.Stats)

	for round := 0; round < 3; round++ {
		for _, fr := range r.ws.frames {
			regs := fr.regs[:cap(fr.regs)]
			for i := range regs {
				regs[i] = poisonWord
			}
			vars := fr.vars[:cap(fr.vars)]
			for i := range vars {
				vars[i] = varSlot{vid: -1, addr: poisonWord}
			}
			fr.mark = poisonWord
			fr.fn = nil
		}
		m := r.next()
		exit, err := m.Run()
		if err != nil {
			t.Fatalf("round %d: run after frame poisoning: %v", round, err)
		}
		if exit != wantExit {
			t.Fatalf("round %d: exit = %d, want %d — poisoned frame state leaked", round, exit, wantExit)
		}
		if got := modelled(m.Stats); got != wantStats {
			t.Fatalf("round %d: modelled stats diverged after poisoning:\n got %+v\nwant %+v", round, got, wantStats)
		}
	}
}

// pokeSegmentEnds is the nastiest tenant's attack: with an
// arbitrary-write primitive it pokes the poison word into the last eight
// bytes of every segment, far outside the program's own allocations. It
// goes through the attacker's own funnel (Poke routes through Store, so
// the write watermark sees it).
func pokeSegmentEnds(t *testing.T, m *Machine) {
	t.Helper()
	for _, s := range m.Mem.segs {
		addr := s.base + uint64(len(s.data)) - 8
		if err := m.Mem.Poke(addr, poisonWord, 8); err != nil {
			t.Fatalf("poke %s %#x: %v", s.name, addr, err)
		}
	}
}

// checkPristine requires every byte of m's memory — each segment's whole
// backing array, not only its mapped length — to be zero, except m's
// program's string constants, which must read back intact.
func checkPristine(t *testing.T, m *Machine) {
	t.Helper()
	strs := map[int]bool{}
	for i, str := range m.Prog.Strings {
		b, err := m.Mem.Bytes(m.img.stringAddr[i], len(str)+1)
		if err != nil {
			t.Fatalf("string %d: %v", i, err)
		}
		if string(b[:len(str)]) != str || b[len(str)] != 0 {
			t.Fatalf("string constant %d corrupted after rebind: %q", i, b)
		}
		for k := 0; k <= len(str); k++ {
			strs[int(m.img.stringAddr[i]-StringsBase)+k] = true
		}
	}
	for _, s := range m.Mem.segs {
		for off, b := range s.data[:cap(s.data)] {
			if b != 0 && !(s.name == "strings" && strs[off]) {
				t.Fatalf("segment %s byte %#x = %#x after rebind, want 0", s.name, s.base+uint64(off), b)
			}
		}
	}
}

// TestResetWipesPoisonedMemory pokes sentinel bytes into every segment of
// the resident machine after a run, then rebinds it for the next run of
// the same program. Every poisoned byte must be gone — heap, stack and
// globals read back zero, string constants read back pristine — and the
// next run must be bit-identical to a clean one.
func TestResetWipesPoisonedMemory(t *testing.T) {
	r := residentMachine(t, allocBenchProg(t), false)

	m := r.next()
	wantExit, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantStats := modelled(m.Stats)

	m = r.next()
	if _, err := m.Run(); err != nil {
		t.Fatalf("victim run: %v", err)
	}
	pokeSegmentEnds(t, m)

	m = r.next()
	checkPristine(t, m)
	exit, err := m.Run()
	if err != nil {
		t.Fatalf("run after poisoned rebind: %v", err)
	}
	if exit != wantExit {
		t.Fatalf("exit = %d, want %d — poisoned memory leaked across the rebind", exit, wantExit)
	}
	if got := modelled(m.Stats); got != wantStats {
		t.Fatalf("modelled stats diverged after poisoned rebind:\n got %+v\nwant %+v", got, wantStats)
	}
}

// isolationSrcA dirties every segment a program can reach: a large
// globals array, the heap, the stack, then hands an attack hook the
// machine at __hook(1).
const isolationSrcA = `
long big[2048];
char *msg;

int main(void) {
	long local[64];
	int i = 0;
	while (i < 2048) {
		big[i] = i + 1;
		i = i + 1;
	}
	long *p = (long *)malloc(512);
	p[63] = 7;
	local[63] = 5;
	msg = "program A leaves this behind";
	__hook(1);
	return (int)(big[100] + p[63] + local[63]) & 255;
}
`

// isolationSrcB has a much smaller globals segment and its own string
// constant.
const isolationSrcB = `
long g[2];
char *name;

int main(void) {
	name = "bee";
	g[1] = name[0];
	return (int)g[1];
}
`

// TestProgramSwitchIsolation switches a worker's resident machine from a
// program that dirtied and poisoned every segment to a program with a
// smaller globals segment. After the rebind every byte of memory is zero
// but B's string constants, every segment has exactly the length a fresh
// machine for B gives it, and a load one byte past B's globals fails with
// a fresh machine's error text.
func TestProgramSwitchIsolation(t *testing.T) {
	a, b := stcProg(t, isolationSrcA), stcProg(t, isolationSrcB)
	optsA, optsB := DefaultOptions(), DefaultOptions()
	optsA.Image, optsB.Image = NewImage(a), NewImage(b)
	if optsB.Image.gsize >= optsA.Image.gsize {
		t.Fatalf("B's globals (%d bytes) must be smaller than A's (%d)", optsB.Image.gsize, optsA.Image.gsize)
	}
	ws := NewWorkerState()

	m := ws.MachineFor(a, optsA)
	m.RegisterHook(1, func(m *Machine) error {
		pokeSegmentEnds(t, m)
		return nil
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("program A: %v", err)
	}
	for _, s := range m.Mem.segs {
		if s.hi == 0 {
			t.Fatalf("program A left segment %s clean; the test must dirty every segment", s.name)
		}
	}

	m = ws.MachineFor(b, optsB)
	checkPristine(t, m)
	fresh := New(b, optsB)
	for i, s := range m.Mem.segs {
		if len(s.data) != len(fresh.Mem.segs[i].data) {
			t.Fatalf("segment %s is %d bytes after the switch, %d on a fresh machine", s.name, len(s.data), len(fresh.Mem.segs[i].data))
		}
	}
	past := GlobalsBase + uint64(len(fresh.Mem.segs[0].data))
	_, gotErr := m.Mem.Load(past, 1)
	_, wantErr := fresh.Mem.Load(past, 1)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("load one past B's globals: resident err %v, fresh err %v", gotErr, wantErr)
	}

	exit, err := m.Run()
	if err != nil {
		t.Fatalf("program B after the switch: %v", err)
	}
	wantExit, err := fresh.Run()
	if err != nil {
		t.Fatalf("program B on a fresh machine: %v", err)
	}
	if exit != wantExit || modelled(m.Stats) != modelled(fresh.Stats) {
		t.Fatalf("program B after the switch = (%d, %+v), fresh = (%d, %+v)", exit, modelled(m.Stats), wantExit, modelled(fresh.Stats))
	}
}

// BenchmarkSteadyStateRun is the -benchmem face of the allocation budget:
// allocs/op must read 0 in the bench-smoke CI leg.
func BenchmarkSteadyStateRun(b *testing.B) {
	prog := allocBenchProg(b)
	for _, tier := range []bool{false, true} {
		name := "interp"
		if tier {
			name = "tier"
		}
		b.Run(name, func(b *testing.B) {
			r := residentMachine(b, prog, tier)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.next().Run(); err != nil {
					b.Fatalf("run: %v", err)
				}
			}
		})
	}
}

// BenchmarkSteadyStateRunSwitching is BenchmarkSteadyStateRun on a worker
// whose every run switches program: one op is a run of each of two
// programs with different globals, strings and site counts, so B/op
// prints what a program switch costs.
func BenchmarkSteadyStateRunSwitching(b *testing.B) {
	progs := []*mir.Program{allocBenchProg(b), stcProg(b, switchSrc)}
	for _, tier := range []bool{false, true} {
		name := "interp"
		if tier {
			name = "tier"
		}
		b.Run(name, func(b *testing.B) {
			ws := NewWorkerState()
			opts := make([]Options, len(progs))
			for i, p := range progs {
				opts[i] = DefaultOptions()
				opts[i].Image, opts[i].Tier, opts[i].TierThreshold = NewImage(p), tier, testTierThreshold
				if _, err := ws.MachineFor(p, opts[i]).Run(); err != nil {
					b.Fatalf("warmup: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, p := range progs {
					if _, err := ws.MachineFor(p, opts[k]).Run(); err != nil {
						b.Fatalf("run: %v", err)
					}
				}
			}
		})
	}
}
