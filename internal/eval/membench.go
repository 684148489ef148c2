package eval

// Memory-behaviour measurement for the benchmark trajectory: the
// allocation and GC-pause profile of the steady-state run path. The
// zero-allocation execution core (flat predecoded images, pooled run
// arenas) is only as durable as its regression guard — these numbers ride
// BENCH_RESULTS.json next to instrs/s and get the same walk-back
// comparison, so a PR that quietly reintroduces per-run heap churn fails
// the trajectory check instead of surviving as invisible GC pressure.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/lower"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// MemBenchRecord is the memory-behaviour section of a trajectory
// datapoint. Unlike the throughput fields these are not omitempty-guarded
// by value — zero IS the expected steady state — so the whole section is
// a pointer on BenchRecord and absence means "not measured".
type MemBenchRecord struct {
	// AllocsPerRun / BytesPerRun: average heap allocations and bytes per
	// steady-state MachineFor+Run of the instrumented measurement workload
	// on the switch interpreter. The execution-core contract pins both at 0.
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`

	// TierAllocsPerRun is the same measurement with the direct-threaded
	// tier serving the run (promotion paid during warmup).
	TierAllocsPerRun float64 `json:"tier_allocs_per_run"`

	// GCPauseP99Ns is the 99th-percentile stop-the-world pause over the
	// process's recent GC history after the measurement loop (0 when the
	// loop provoked no collections — the steady state a zero-allocation
	// run path earns).
	GCPauseP99Ns float64 `json:"gc_pause_p99_ns"`

	// NumGC is how many collections the measurement loop itself triggered.
	NumGC uint32 `json:"num_gc"`

	// Runs is the measurement loop length behind the averages.
	Runs int `json:"runs"`
}

// memBenchSrc is the measurement workload: pointer-chasing through
// malloc'd structs so the instrumented build carries pac/aut traffic and
// fused superinstruction groups, and — deliberately — no printf and no
// exit(), whose host-side implementations allocate and would charge the
// harness's own formatting to the execution core.
const memBenchSrc = `
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
	while (i < 128) {
		struct node *n = (struct node *)malloc(16);
		n->v = i;
		n->next = head;
		head = n;
		i = i + 1;
	}
	int r = 0;
	int k = 0;
	while (k < 400) {
		r = r + sum(head);
		k = k + 1;
	}
	return r & 255;
}
`

// memBenchRuns sizes the measurement loop: long enough to average away a
// stray background allocation, short enough to keep the trajectory pass
// quick (~100ms at current throughput).
const memBenchRuns = 30

// MeasureMemBench measures the steady-state allocation and GC profile of
// the run path and verifies the modelled numbers stay bit-identical from
// run to run while it does so.
func MeasureMemBench() (*MemBenchRecord, error) {
	f, err := cminor.Frontend(memBenchSrc)
	if err != nil {
		return nil, err
	}
	lowered, err := lower.Lower(f)
	if err != nil {
		return nil, err
	}
	prog, _, err := rsti.Instrument(lowered, sti.Analyze(lowered), sti.STC)
	if err != nil {
		return nil, err
	}

	// warm gives a worker its resident machine the way an engine worker
	// holds one and pays all pool growth up front; every measured cycle
	// then rebinds that machine through MachineFor, as a served run does.
	type worker struct {
		ws   *vm.WorkerState
		opts vm.Options
	}
	warm := func(tier bool) (worker, *vm.Machine, error) {
		w := worker{ws: vm.NewWorkerState(), opts: vm.DefaultOptions()}
		w.opts.Image = vm.NewImage(prog)
		w.opts.Tier = tier
		var m *vm.Machine
		for i := 0; i < 2; i++ {
			m = w.ws.MachineFor(prog, w.opts)
			if _, err := m.Run(); err != nil {
				return w, nil, err
			}
		}
		return w, m, nil
	}

	interp, m, err := warm(false)
	if err != nil {
		return nil, err
	}
	wantStats := modelledStats(m.Stats)
	rec := &MemBenchRecord{Runs: memBenchRuns}

	var runErr error
	cycle := func(w worker) {
		m := w.ws.MachineFor(prog, w.opts)
		if _, err := m.Run(); err != nil && runErr == nil {
			runErr = err
		}
		if got := modelledStats(m.Stats); got != wantStats && runErr == nil {
			runErr = fmt.Errorf("membench: modelled stats diverged across MachineFor+Run:\n got %+v\nwant %+v", got, wantStats)
		}
	}

	// Allocation count via the runtime's own accounting (GC-quiesced,
	// single-goroutine — the same instrument the AllocBudget tests pin at
	// zero).
	rec.AllocsPerRun = testing.AllocsPerRun(memBenchRuns, func() { cycle(interp) })
	if runErr != nil {
		return nil, runErr
	}

	// Bytes and GC activity over an un-quiesced loop: TotalAlloc and
	// NumGC are monotonic, so the deltas attribute exactly the loop.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < memBenchRuns; i++ {
		cycle(interp)
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		return nil, runErr
	}
	rec.BytesPerRun = float64(after.TotalAlloc-before.TotalAlloc) / memBenchRuns
	rec.NumGC = after.NumGC - before.NumGC
	rec.GCPauseP99Ns = gcPauseP99(&after, rec.NumGC)

	// The tier's allocation budget, measured after its warmup run paid
	// promotion and compilation.
	tiered, _, err := warm(true)
	if err != nil {
		return nil, err
	}
	rec.TierAllocsPerRun = testing.AllocsPerRun(memBenchRuns, func() { cycle(tiered) })
	if runErr != nil {
		return nil, runErr
	}
	return rec, nil
}

// gcPauseP99 extracts the 99th-percentile pause from the MemStats pause
// ring, restricted to the n most recent collections (the ones the
// measurement loop caused). Zero collections → zero pause.
func gcPauseP99(ms *runtime.MemStats, n uint32) float64 {
	if n == 0 {
		return 0
	}
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	if n > ms.NumGC {
		n = ms.NumGC
	}
	pauses := make([]uint64, 0, n)
	for i := uint32(0); i < n; i++ {
		pauses = append(pauses, ms.PauseNs[(ms.NumGC-1-i)%uint32(len(ms.PauseNs))])
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	return float64(pauses[(len(pauses)-1)*99/100])
}

// Summary renders the memory section for the human-readable report.
func (m *MemBenchRecord) Summary() string {
	return fmt.Sprintf(
		"  steady-state allocs:  %8.2f /run interp, %.2f /run tier (%.1f B/run, %d GCs, p99 pause %.0f µs)",
		m.AllocsPerRun, m.TierAllocsPerRun, m.BytesPerRun, m.NumGC, m.GCPauseP99Ns/1e3)
}
