package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"rsti/internal/cminor"
	"rsti/internal/core"
	"rsti/internal/difftest"
	"rsti/internal/lower"
	"rsti/internal/mir"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

// compileBudgetBytes bounds what one cold compile of hmmer allocates:
// core.Compile plus its STL build at GOMAXPROCS 2. It sits about 1.2x
// above the measured figure (10.18 MB; 20.89 MB before the compile path
// built its IR in pooled scratch), so a change that brings back
// per-block slice growth, an unsized token slice or a second copy of a
// function's instructions fails here.
const compileBudgetBytes = 12_200_000

// table3Sources returns the named Table 3 programs' sources.
func table3Sources(t *testing.T, names ...string) []string {
	t.Helper()
	byName := map[string]string{}
	for _, b := range workload.SPEC2006Static() {
		byName[b.Name] = b.Source
	}
	var srcs []string
	for _, n := range names {
		src, ok := byName[n]
		if !ok {
			t.Fatalf("no Table 3 program %q", n)
		}
		srcs = append(srcs, src)
	}
	return srcs
}

// TestCompileAllocBudget pins the compile path's allocation volume and
// the layout that keeps it low: every function's instructions live in
// one exact-size arena, in both the lowered and the instrumented
// program.
func TestCompileAllocBudget(t *testing.T) {
	// Each worker of the lowering and instrumentation fan-out keeps its
	// own buffers, so the figure grows with GOMAXPROCS; pin it to the
	// value the budget was measured at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	src := table3Sources(t, "hmmer")[0]
	compile := func() (*core.Compilation, *core.Build) {
		c, err := core.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.BuildMode(sti.STL, false)
		if err != nil {
			t.Fatal(err)
		}
		return c, b
	}
	compile() // the first compile grows the pooled scratch

	// The least of a few runs: a GC that empties the scratch pool in
	// the middle of one run makes that run regrow it.
	var (
		c        *core.Compilation
		b        *core.Build
		minBytes = ^uint64(0)
	)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, b = compile()
		runtime.ReadMemStats(&after)
		minBytes = min(minBytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("hmmer compile + STL build: %d bytes allocated (budget %d)", minBytes, compileBudgetBytes)
	// The race detector makes sync.Pool drop items at random, so the
	// figure is only meaningful without it.
	if !raceEnabled && minBytes > compileBudgetBytes {
		t.Errorf("hmmer compile + STL build allocated %d bytes, budget %d", minBytes, compileBudgetBytes)
	}

	checkArenas(t, "lowered", c.Prog)
	checkArenas(t, "instrumented", b.Prog)
}

// checkArenas asserts that each function's blocks subslice one backing
// array back to back, each at cap == len, so that appending to a block
// reallocates it instead of overwriting its neighbour.
func checkArenas(t *testing.T, what string, p *mir.Program) {
	t.Helper()
	size := unsafe.Sizeof(mir.Instr{})
	for _, f := range p.Funcs {
		if f.Extern {
			continue
		}
		next := unsafe.Pointer(unsafe.SliceData(f.Blocks[0].Instrs))
		for i, blk := range f.Blocks {
			if len(blk.Instrs) != cap(blk.Instrs) {
				t.Fatalf("%s %s block %d: len %d, cap %d", what, f.Name, i, len(blk.Instrs), cap(blk.Instrs))
			}
			if unsafe.Pointer(unsafe.SliceData(blk.Instrs)) != next {
				t.Fatalf("%s %s block %d does not follow block %d in the function's arena", what, f.Name, i, i-1)
			}
			next = unsafe.Add(next, uintptr(len(blk.Instrs))*size)
			if i+1 < len(f.Blocks) {
				after := f.Blocks[i+1]
				want := append([]mir.Instr(nil), after.Instrs...)
				_ = append(blk.Instrs, mir.Instr{Op: mir.Nop, Dst: -7, Imm: 0x5a5a})
				if !reflect.DeepEqual(after.Instrs, want) {
					t.Fatalf("%s %s: appending to block %d changed block %d", what, f.Name, i, i+1)
				}
			}
		}
	}
}

// compiled is everything a compile produces that reused scratch could
// corrupt: the encoded lowered program and, per mechanism, the encoded
// instrumented program and its pass statistics.
type compiled struct {
	lowered []byte
	builds  [][]byte
	stats   []rsti.Stats
}

var isolationMechs = []sti.Mechanism{sti.None, sti.STWC, sti.STC, sti.STL}

func compileWith(src string, workers int) (*compiled, error) {
	f, err := cminor.Frontend(src)
	if err != nil {
		return nil, err
	}
	prog, err := lower.LowerWithOptions(f, lower.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := mir.EncodeProgram(&buf, prog); err != nil {
		return nil, err
	}
	out := &compiled{lowered: append([]byte(nil), buf.Bytes()...)}
	an := sti.Analyze(prog)
	for _, m := range isolationMechs {
		ip, st, err := rsti.InstrumentWithOptions(prog, an, m, rsti.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		buf.Reset()
		if err := mir.EncodeProgram(&buf, ip); err != nil {
			return nil, err
		}
		out.builds = append(out.builds, append([]byte(nil), buf.Bytes()...))
		out.stats = append(out.stats, *st)
	}
	return out, nil
}

// TestReusedScratchIsolation compiles a mixed corpus over and over on the
// same goroutines, so the pooled emitter scratch carries one program's
// instructions into the next compile, serially and with the function
// fan-out on. Every compile must encode byte for byte like the program's
// first compile and report the same instrumentation statistics.
func TestReusedScratchIsolation(t *testing.T) {
	var srcs []string
	for seed := uint64(1); seed <= 8; seed++ {
		srcs = append(srcs, difftest.Generate(difftest.ConfigForSeed(seed)))
	}
	srcs = append(srcs, table3Sources(t, "bzip2", "hmmer")...)

	want := make([]*compiled, len(srcs))
	for i, src := range srcs {
		c, err := compileWith(src, 1)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		want[i] = c
	}

	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	const goroutines, rounds = 2, 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range srcs {
					i := (k + g*3 + r*5) % len(srcs)
					workers := workerCounts[(k+g+r)%len(workerCounts)]
					got, err := compileWith(srcs[i], workers)
					if err != nil {
						t.Errorf("program %d, workers %d: %v", i, workers, err)
						return
					}
					if !bytes.Equal(got.lowered, want[i].lowered) {
						t.Errorf("program %d, workers %d: lowered program differs from its first compile", i, workers)
					}
					for j, m := range isolationMechs {
						if !bytes.Equal(got.builds[j], want[i].builds[j]) {
							t.Errorf("program %d, workers %d, %s: instrumented program differs from its first compile", i, workers, m)
						}
						if got.stats[j] != want[i].stats[j] {
							t.Errorf("program %d, workers %d, %s: stats %+v, first compile %+v", i, workers, m, got.stats[j], want[i].stats[j])
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
