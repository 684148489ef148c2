package eval

// Benchmark-trajectory harness: one self-contained measurement pass over
// the reproduction's host-side hot paths, serialized as a datapoint in
// BENCH_RESULTS.json. Each optimization PR appends a labelled record, so
// the file accumulates the repo's performance history and any regression
// shows up as a drop between adjacent records. The modelled numbers
// (cycles, overhead percentages) recorded here double as an invariant
// trace: they must stay bit-identical across host-side optimization.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rsti/internal/cminor"
	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/lower"
	"rsti/internal/pa"
	"rsti/internal/qarma"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
	"rsti/internal/workload"
)

// BenchRecord is one datapoint of the benchmark trajectory.
type BenchRecord struct {
	Label     string `json:"label"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	// Host-side throughput. All micro-benchmark fields are omitempty:
	// records written by load- or security-only passes (rstiload,
	// rstibench -secjson) legitimately never measure them, and a zero in
	// the trajectory must read as "not measured", not "infinitely fast" —
	// the regression guard walks back past such records per metric.
	QarmaEncryptNsPerOp     float64            `json:"qarma_encrypt_ns_per_op,omitempty"`
	PACSignWarmNsPerOp      float64            `json:"pac_sign_warm_ns_per_op,omitempty"`
	PipelineStageNsPerOp    map[string]float64 `json:"pipeline_stage_ns_per_op,omitempty"`
	InterpreterInstrsPerSec float64            `json:"interpreter_instrs_per_sec,omitempty"`
	PACCacheHitRate         float64            `json:"pac_cache_hit_rate,omitempty"`
	Figure9WallSeconds      float64            `json:"figure9_wall_seconds,omitempty"`

	// Tiered execution: modelled instrs/s on the same interpreter workload
	// with the profile-guided direct-threaded tier enabled, how many
	// function promotions the measured run performed, and whether the
	// tier-on run's modelled statistics matched the tier-off run
	// bit-identically (host-side observability counters excluded).
	TieredInstrsPerSec float64 `json:"tiered_instrs_per_sec,omitempty"`
	TierPromotions     int64   `json:"tier_promotions,omitempty"`
	TierBitIdentical   bool    `json:"tier_bit_identical,omitempty"`

	// Engine throughput sweep: modelled instrs/s through internal/engine
	// at each worker count, whether every run stayed bit-identical to the
	// sequential reference, and the best-over-1-worker scaling factor
	// (bounded above by the host CPU count recorded in CPUs).
	EngineThroughput   []EngineThroughputPoint `json:"engine_throughput,omitempty"`
	EngineScalingOver1 float64                 `json:"engine_scaling_over_1,omitempty"`
	EngineBitIdentical bool                    `json:"engine_bit_identical,omitempty"`

	// Compile-path measurements: effectiveness of the shared
	// content-addressed compile cache on a double pass over part of the
	// static corpus (the second pass must be pure hits), the warm-hit
	// latency, and the wall time to produce the three RSTI builds of a
	// Table 3-sized program serially (Build × 3) versus concurrently
	// (BuildAll over the per-mechanism once-cells).
	CompileCacheHitRate     float64 `json:"compile_cache_hit_rate,omitempty"`
	CompileCacheWarmNsPerOp float64 `json:"compile_cache_warm_ns_per_op,omitempty"`
	Build3SerialNsPerOp     float64 `json:"build3_serial_ns_per_op,omitempty"`
	Build3ParallelNsPerOp   float64 `json:"build3_parallel_ns_per_op,omitempty"`

	// PAC elision and superinstruction fusion: per-mechanism dynamic
	// PAC-op reduction (percent) from the safety-preserving elision pass
	// on the Table 3-sized trajectory program, plus the PAC-dense
	// microbenchmark's modelled-instruction throughput on the fused
	// dispatch path and the share of its modelled instructions retired
	// through fused sign/store · auth/load dispatches.
	PACOpsElidedPct      map[string]float64 `json:"pac_ops_elided_pct,omitempty"`
	PACDenseInstrsPerSec float64            `json:"pac_dense_instrs_per_sec,omitempty"`
	PACDenseFusedShare   float64            `json:"pac_dense_fused_share,omitempty"`

	// Service load test: end-to-end latency percentiles and throughput
	// from cmd/rstiload driving concurrent compile+run sessions through
	// the /v1 HTTP API. Unlike the sections above this measures the
	// whole daemon — admission, cache coalescing, engine queueing —
	// not an isolated component.
	LoadTest *LoadTestRecord `json:"load_test,omitempty"`

	// Memory behaviour of the steady-state run path: allocations and
	// bytes per MachineFor+Run (pinned at zero by the execution-core contract),
	// the tier's budget, and GC activity. A pointer, not omitempty values:
	// zero IS the healthy measurement, so absence must mean "not measured".
	Mem *MemBenchRecord `json:"mem,omitempty"`

	// Cluster load test: cmd/rstiload -cluster driving an N-peer fleet —
	// cross-node cache sharing, forwarded-compile latency, and the
	// cold-restart contract (first run from persisted artifacts with zero
	// instrumentation, bit-identical modelled numbers).
	ClusterLoad *ClusterLoadRecord `json:"cluster_load,omitempty"`

	// Modelled invariants: host optimization must never move these.
	Figure9GeomeanPct map[string]float64 `json:"figure9_overall_geomean_pct,omitempty"`
	GoldenCycles      map[string]int64   `json:"golden_cycles,omitempty"`
}

// modelledStats strips the host-side observability counters (cache
// effectiveness, fusion and tier attribution) from a stats snapshot,
// leaving exactly the modelled numbers the bit-identity contract covers.
func modelledStats(s vm.Stats) vm.Stats {
	s.PACCacheHits, s.PACCacheMisses = 0, 0
	s.FusedAuthLoads, s.FusedSignStores, s.FusedAuthStores = 0, 0, 0
	s.FusedAuthAddrLoads, s.FusedAuthAddrStores, s.FusedInstrs = 0, 0, 0
	s.ThreadedInstrs = 0
	return s
}

// timeOp measures fn's best-of-runs time per op in nanoseconds.
func timeOp(runs, opsPerRun int, fn func()) float64 {
	best := 0.0
	for r := 0; r < runs; r++ {
		start := time.Now()
		fn()
		ns := float64(time.Since(start).Nanoseconds()) / float64(opsPerRun)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// MeasureBenchTrajectory runs the full measurement pass.
func MeasureBenchTrajectory(label string) (*BenchRecord, error) {
	rec := &BenchRecord{
		Label:     label,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),

		PipelineStageNsPerOp: make(map[string]float64),
		Figure9GeomeanPct:    make(map[string]float64),
		GoldenCycles:         make(map[string]int64),
	}

	// QARMA cipher throughput.
	cipher := qarma.New(0x84be85ce9804e94b, 0xec2802d4e0a488e9, qarma.StandardRounds)
	var sink uint64
	rec.QarmaEncryptNsPerOp = timeOp(5, 200_000, func() {
		for i := 0; i < 200_000; i++ {
			sink ^= cipher.Encrypt(uint64(i), 0x477d469dec0b8762)
		}
	})

	// Warm PAC sign throughput (memoization hit path).
	unit := pa.NewUnit(pa.DefaultConfig(), pa.GenerateKeys(1))
	rec.PACSignWarmNsPerOp = timeOp(5, 200_000, func() {
		for i := 0; i < 200_000; i++ {
			sink ^= unit.Sign(0x4000_1234, pa.KeyDA, 0x42)
		}
	})
	_ = sink

	// Compiler pipeline stage throughput on a Table 3-sized program.
	src := workload.SPEC2006Static()[1].Source
	f, err := cminor.Frontend(src)
	if err != nil {
		return nil, err
	}
	prog, err := lower.Lower(f)
	if err != nil {
		return nil, err
	}
	an := sti.Analyze(prog)
	rec.PipelineStageNsPerOp["frontend"] = timeOp(5, 1, func() { cminor.Frontend(src) })
	rec.PipelineStageNsPerOp["lower"] = timeOp(5, 1, func() { lower.Lower(f) })
	rec.PipelineStageNsPerOp["analyze"] = timeOp(5, 1, func() { sti.Analyze(prog) })
	rec.PipelineStageNsPerOp["instrument"] = timeOp(5, 1, func() { rsti.Instrument(prog, an, sti.STWC) })

	// Compile-cache effectiveness: one cold pass over a slice of the
	// static corpus through a fresh bounded cache, then timed warm passes
	// that must be answered entirely from cache. With 3 timed passes the
	// hit rate lands at exactly 0.75 — any deviation means the cache
	// stopped recognizing identical source. The latency figure is the
	// warm-hit path: a content hash plus a map probe.
	statics := workload.SPEC2006Static()
	if len(statics) > 6 {
		statics = statics[:6]
	}
	cc := compilecache.New(compilecache.Config{})
	for _, b := range statics {
		if _, err := cc.Get(b.Source); err != nil {
			return nil, err
		}
	}
	rec.CompileCacheWarmNsPerOp = timeOp(3, len(statics), func() {
		for _, b := range statics {
			cc.Get(b.Source)
		}
	})
	rec.CompileCacheHitRate = cc.Stats().HitRate()

	// Three-mechanism build wall time, serial vs concurrent, on fresh
	// compilations of the same Table 3-sized program (each measurement
	// needs virgin once-cells).
	mechs3 := []sti.Mechanism{sti.STWC, sti.STC, sti.STL}
	comps := make([]*core.Compilation, 6)
	for i := range comps {
		if comps[i], err = core.Compile(src); err != nil {
			return nil, err
		}
	}
	rep := 0
	rec.Build3SerialNsPerOp = timeOp(3, 1, func() {
		c := comps[rep]
		rep++
		for _, m := range mechs3 {
			c.Build(m)
		}
	})
	rec.Build3ParallelNsPerOp = timeOp(3, 1, func() {
		c := comps[rep]
		rep++
		c.BuildAll(mechs3)
	})

	// Interpreter throughput (modelled instructions per host second) on an
	// uninstrumented SPEC2017 run, best of three.
	interp := workload.SPEC2017()[0]
	fi, err := cminor.Frontend(interp.Source)
	if err != nil {
		return nil, err
	}
	pi, err := lower.Lower(fi)
	if err != nil {
		return nil, err
	}
	bestPerSec := 0.0
	var interpStats vm.Stats
	for r := 0; r < 3; r++ {
		m := vm.New(pi, vm.DefaultOptions())
		start := time.Now()
		if _, err := m.Run(); err != nil {
			return nil, err
		}
		perSec := float64(m.Stats.Instrs) / time.Since(start).Seconds()
		if perSec > bestPerSec {
			bestPerSec = perSec
		}
		interpStats = m.Stats
	}
	rec.InterpreterInstrsPerSec = bestPerSec

	// Tiered throughput on the same workload: one shared image so the
	// first round pays profiling + promotion and later rounds run the
	// compiled bodies, exactly like a warmed serving process. The modelled
	// statistics must match the interpreter's bit-for-bit.
	tierImg := vm.NewImage(pi)
	var tierStats vm.Stats
	for r := 0; r < 3; r++ {
		opts := vm.DefaultOptions()
		opts.Image = tierImg
		opts.Tier = true
		m := vm.New(pi, opts)
		start := time.Now()
		if _, err := m.Run(); err != nil {
			return nil, err
		}
		perSec := float64(m.Stats.Instrs) / time.Since(start).Seconds()
		if perSec > rec.TieredInstrsPerSec {
			rec.TieredInstrsPerSec = perSec
		}
		tierStats = m.Stats
	}
	rec.TierPromotions = tierImg.TierStats().Promotions
	rec.TierBitIdentical = modelledStats(interpStats) == modelledStats(tierStats)

	// PAC-cache hit rate and golden modelled cycles on the fixed
	// workloads the golden regression test pins.
	goldens := []*workload.Benchmark{workload.SPEC2017()[0], workload.NBench()[0]}
	for _, b := range goldens {
		c, err := core.Compile(b.Source)
		if err != nil {
			return nil, err
		}
		for _, mech := range []sti.Mechanism{sti.None, sti.STWC, sti.STC, sti.STL} {
			// Golden cycles are pinned on unoptimized builds; keep the
			// recorded invariant independent of the RSTI_OPT process default.
			res, err := c.Run(mech, core.RunConfig{Optimize: core.OptimizeOff})
			if err != nil {
				return nil, err
			}
			if res.Err != nil {
				return nil, fmt.Errorf("%s under %s: %w", b.Name, mech, res.Err)
			}
			rec.GoldenCycles[b.Name+"/"+mech.String()] = res.Stats.Cycles
			if b.Suite == "SPEC2017" && mech == sti.STL {
				rec.PACCacheHitRate = res.Stats.PACCacheHitRate()
			}
		}
	}

	// PAC elision effectiveness on the Table 3-sized trajectory program:
	// the dynamic PAC-op reduction per mechanism with the optimizer on
	// versus off, benign behaviour verified identical as a side condition.
	rec.PACOpsElidedPct = make(map[string]float64)
	elisionComp, err := core.Compile(src)
	if err != nil {
		return nil, err
	}
	for _, mech := range []sti.Mechanism{sti.STWC, sti.STC, sti.STL, sti.Adaptive} {
		off, err := elisionComp.Run(mech, core.RunConfig{Optimize: core.OptimizeOff})
		if err != nil {
			return nil, err
		}
		on, err := elisionComp.Run(mech, core.RunConfig{Optimize: core.OptimizeOn})
		if err != nil {
			return nil, err
		}
		if off.Err != nil || on.Err != nil || on.Exit != off.Exit || on.Output != off.Output {
			return nil, fmt.Errorf("elision measurement under %s: optimized run diverged", mech)
		}
		if off.Stats.PACOps() > 0 {
			rec.PACOpsElidedPct[mech.String()] =
				100 * (1 - float64(on.Stats.PACOps())/float64(off.Stats.PACOps()))
		}
	}

	// PAC-dense fused-dispatch throughput: modelled instructions per host
	// second on a pointer-chasing kernel under STWC with the optimizer on,
	// best of three, plus the share of modelled instructions retired
	// through fused sign/store · auth/load dispatches.
	dense := workload.PACDense()
	denseComp, err := core.Compile(dense.Source)
	if err != nil {
		return nil, err
	}
	for r := 0; r < 3; r++ {
		start := time.Now()
		res, err := denseComp.Run(sti.STWC, core.RunConfig{Optimize: core.OptimizeOn})
		if err != nil {
			return nil, err
		}
		if res.Err != nil {
			return nil, fmt.Errorf("pac-dense under %s: %w", sti.STWC, res.Err)
		}
		perSec := float64(res.Stats.Instrs) / time.Since(start).Seconds()
		if perSec > rec.PACDenseInstrsPerSec {
			rec.PACDenseInstrsPerSec = perSec
		}
		if r == 0 {
			rec.PACDenseFusedShare = res.Stats.FusedShare()
		}
	}

	// Figure 9 wall-clock and (invariant) overall geomeans.
	start := time.Now()
	fig, err := MeasureFigure9()
	if err != nil {
		return nil, err
	}
	rec.Figure9WallSeconds = time.Since(start).Seconds()
	for mech, g := range fig.Overall {
		rec.Figure9GeomeanPct[mech.String()] = g * 100
	}

	// Steady-state memory behaviour (allocations, bytes, GC pauses).
	if rec.Mem, err = MeasureMemBench(); err != nil {
		return nil, err
	}

	// Engine throughput sweep over worker counts, with per-run
	// bit-identical verification against the sequential reference.
	points, err := MeasureEngineThroughput([]int{1, 2, 4, 8})
	if err != nil {
		return nil, err
	}
	rec.EngineThroughput = points
	rec.EngineScalingOver1 = ScalingOver1(points)
	rec.EngineBitIdentical = true
	for _, p := range points {
		if !p.BitIdentical {
			rec.EngineBitIdentical = false
		}
	}
	return rec, nil
}

// ReadBenchRecords loads the trajectory at path; a missing file is an
// empty trajectory, not an error.
func ReadBenchRecords(path string) ([]BenchRecord, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var records []BenchRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("bench trajectory %s is not a record array: %w", path, err)
	}
	return records, nil
}

// lastWith walks the trajectory backwards for the most recent record
// matching rec's host shape (goos/goarch/cpu count — wall-clock
// comparisons across different hosts are noise) that also satisfies has:
// "this record actually measured the metric in question". Records from
// load- or security-only passes carry only their own section, so each
// metric must find its own predecessor instead of comparing against a
// neighbour's unset zeroes.
func lastWith(records []BenchRecord, rec *BenchRecord, has func(*BenchRecord) bool) *BenchRecord {
	for i := len(records) - 1; i >= 0; i-- {
		r := &records[i]
		if r.GOOS == rec.GOOS && r.GOARCH == rec.GOARCH && r.CPUs == rec.CPUs && has(r) {
			return r
		}
	}
	return nil
}

// TrajectoryWarnings compares a fresh record's host-side measurements
// against the most recent comparable prior datapoints and returns one
// warning line per metric that regressed by more than threshold (a
// fraction: 0.25 warns beyond +25%). Each metric walks back to the last
// same-host record that actually measured it, so interleaved partial
// records (a load-only rstiload datapoint, a security-only pass) neither
// mask regressions nor fabricate them from unset zero fields. Nil means
// nothing regressed or no metric had a comparable prior record.
func TrajectoryWarnings(records []BenchRecord, rec *BenchRecord, threshold float64) []string {
	var warns []string
	if prev := lastWith(records, rec, func(r *BenchRecord) bool {
		return len(r.PipelineStageNsPerOp) > 0
	}); prev != nil {
		stages := make([]string, 0, len(rec.PipelineStageNsPerOp))
		for st := range rec.PipelineStageNsPerOp {
			stages = append(stages, st)
		}
		sort.Strings(stages)
		for _, st := range stages {
			now := rec.PipelineStageNsPerOp[st]
			was, ok := prev.PipelineStageNsPerOp[st]
			if !ok || was <= 0 {
				continue
			}
			if now > was*(1+threshold) {
				warns = append(warns, fmt.Sprintf(
					"pipeline stage %q regressed %.0f%% vs %q: %.2f ms -> %.2f ms",
					st, (now/was-1)*100, prev.Label, was/1e6, now/1e6))
			}
		}
	}
	// Fused-dispatch throughput is a host-side hot path like the pipeline
	// stages: a drop beyond threshold means the superinstruction fast path
	// (or the interpreter around it) regressed.
	if prev := lastWith(records, rec, func(r *BenchRecord) bool {
		return r.PACDenseInstrsPerSec > 0
	}); prev != nil && rec.PACDenseInstrsPerSec > 0 &&
		rec.PACDenseInstrsPerSec < prev.PACDenseInstrsPerSec*(1-threshold) {
		warns = append(warns, fmt.Sprintf(
			"pac-dense fused throughput regressed %.0f%% vs %q: %.1f -> %.1f M instrs/s",
			(1-rec.PACDenseInstrsPerSec/prev.PACDenseInstrsPerSec)*100, prev.Label,
			prev.PACDenseInstrsPerSec/1e6, rec.PACDenseInstrsPerSec/1e6))
	}
	// Tiered throughput guards the direct-threaded fast path the same way:
	// tier 1 exists only to be faster, so a drop beyond threshold means the
	// closure chains, the batched accounting, or the promotion heuristic
	// regressed.
	if prev := lastWith(records, rec, func(r *BenchRecord) bool {
		return r.TieredInstrsPerSec > 0
	}); prev != nil && rec.TieredInstrsPerSec > 0 &&
		rec.TieredInstrsPerSec < prev.TieredInstrsPerSec*(1-threshold) {
		warns = append(warns, fmt.Sprintf(
			"tiered throughput regressed %.0f%% vs %q: %.1f -> %.1f M instrs/s",
			(1-rec.TieredInstrsPerSec/prev.TieredInstrsPerSec)*100, prev.Label,
			prev.TieredInstrsPerSec/1e6, rec.TieredInstrsPerSec/1e6))
	}
	// Service throughput: only comparable when the drive shape matches
	// (same sessions/concurrency/workers), since throughput scales with
	// all three.
	if rec.LoadTest != nil {
		prev := lastWith(records, rec, func(r *BenchRecord) bool {
			return r.LoadTest != nil &&
				r.LoadTest.Sessions == rec.LoadTest.Sessions &&
				r.LoadTest.Concurrency == rec.LoadTest.Concurrency &&
				r.LoadTest.Workers == rec.LoadTest.Workers &&
				r.LoadTest.RequestsPerSec > 0
		})
		if prev != nil &&
			rec.LoadTest.RequestsPerSec < prev.LoadTest.RequestsPerSec*(1-threshold) {
			warns = append(warns, fmt.Sprintf(
				"service load-test throughput regressed %.0f%% vs %q: %.1f -> %.1f req/s",
				(1-rec.LoadTest.RequestsPerSec/prev.LoadTest.RequestsPerSec)*100, prev.Label,
				prev.LoadTest.RequestsPerSec, rec.LoadTest.RequestsPerSec))
		}
	}
	// Elision effectiveness is deterministic per build: a relative drop
	// means the optimizer lost coverage, not host noise.
	if prev := lastWith(records, rec, func(r *BenchRecord) bool {
		return len(r.PACOpsElidedPct) > 0
	}); prev != nil {
		mechs := make([]string, 0, len(rec.PACOpsElidedPct))
		for m := range rec.PACOpsElidedPct {
			mechs = append(mechs, m)
		}
		sort.Strings(mechs)
		for _, m := range mechs {
			was, ok := prev.PACOpsElidedPct[m]
			if !ok || was <= 0 {
				continue
			}
			if now := rec.PACOpsElidedPct[m]; now < was*(1-threshold) {
				warns = append(warns, fmt.Sprintf(
					"PAC elision under %s dropped from %.1f%% to %.1f%% of dynamic PAC ops vs %q",
					m, was, now, prev.Label))
			}
		}
	}
	// Steady-state memory behaviour: allocs/bytes per run are pinned at
	// zero by the execution-core contract, so the walk-back is strict —
	// against a zero baseline ANY reintroduced allocation warns (the
	// threshold-scaled band around zero is zero), and against a nonzero
	// baseline the usual +threshold band applies. GC pause only compares
	// when the baseline actually saw collections; a first pause against a
	// pause-free baseline is already caught by the alloc/bytes guards.
	if rec.Mem != nil {
		if prev := lastWith(records, rec, func(r *BenchRecord) bool {
			return r.Mem != nil
		}); prev != nil {
			if rec.Mem.AllocsPerRun > prev.Mem.AllocsPerRun*(1+threshold) {
				warns = append(warns, fmt.Sprintf(
					"steady-state allocs/run regressed vs %q: %.2f -> %.2f",
					prev.Label, prev.Mem.AllocsPerRun, rec.Mem.AllocsPerRun))
			}
			if rec.Mem.TierAllocsPerRun > prev.Mem.TierAllocsPerRun*(1+threshold) {
				warns = append(warns, fmt.Sprintf(
					"steady-state tier allocs/run regressed vs %q: %.2f -> %.2f",
					prev.Label, prev.Mem.TierAllocsPerRun, rec.Mem.TierAllocsPerRun))
			}
			if rec.Mem.BytesPerRun > prev.Mem.BytesPerRun*(1+threshold) {
				warns = append(warns, fmt.Sprintf(
					"steady-state bytes/run regressed vs %q: %.1f -> %.1f",
					prev.Label, prev.Mem.BytesPerRun, rec.Mem.BytesPerRun))
			}
			if prev.Mem.GCPauseP99Ns > 0 &&
				rec.Mem.GCPauseP99Ns > prev.Mem.GCPauseP99Ns*(1+threshold) {
				warns = append(warns, fmt.Sprintf(
					"GC pause p99 regressed %.0f%% vs %q: %.0f µs -> %.0f µs",
					(rec.Mem.GCPauseP99Ns/prev.Mem.GCPauseP99Ns-1)*100, prev.Label,
					prev.Mem.GCPauseP99Ns/1e3, rec.Mem.GCPauseP99Ns/1e3))
			}
		}
	}
	// Cluster cache sharing is deterministic for a fixed drive shape: a
	// drop means the ring, the peer fetch path, or artifact adoption broke.
	if rec.ClusterLoad != nil {
		prev := lastWith(records, rec, func(r *BenchRecord) bool {
			return r.ClusterLoad != nil &&
				r.ClusterLoad.Peers == rec.ClusterLoad.Peers &&
				r.ClusterLoad.Sessions == rec.ClusterLoad.Sessions &&
				r.ClusterLoad.Programs == rec.ClusterLoad.Programs &&
				r.ClusterLoad.CacheShareRate > 0
		})
		if prev != nil &&
			rec.ClusterLoad.CacheShareRate < prev.ClusterLoad.CacheShareRate*(1-threshold) {
			warns = append(warns, fmt.Sprintf(
				"cluster cache-share rate dropped from %.1f%% to %.1f%% vs %q",
				prev.ClusterLoad.CacheShareRate*100, rec.ClusterLoad.CacheShareRate*100, prev.Label))
		}
	}
	return warns
}

// AppendBenchRecord appends rec to the JSON trajectory at path (created if
// absent), keeping all previous datapoints.
func AppendBenchRecord(path string, rec *BenchRecord) error {
	records, err := ReadBenchRecords(path)
	if err != nil {
		return err
	}
	records = append(records, *rec)
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summary renders the record as a human-readable report.
func (r *BenchRecord) Summary() string {
	eng := ""
	for _, p := range r.EngineThroughput {
		eng += fmt.Sprintf("\n  engine %d worker(s):   %8.1f M instrs/s (bit-identical: %v)",
			p.Workers, p.InstrsPerSec/1e6, p.BitIdentical)
	}
	if len(r.EngineThroughput) > 0 {
		eng += fmt.Sprintf("\n  engine scaling:       %8.2f x over 1 worker (%d cpus)",
			r.EngineScalingOver1, r.CPUs)
	}
	compile := ""
	if r.Build3SerialNsPerOp > 0 {
		compile = fmt.Sprintf(
			"\n  compile cache:        %8.2f pct hits, warm get %.1f µs"+
				"\n  3-mech build:         %8.2f ms serial, %.2f ms parallel",
			r.CompileCacheHitRate*100, r.CompileCacheWarmNsPerOp/1e3,
			r.Build3SerialNsPerOp/1e6, r.Build3ParallelNsPerOp/1e6)
	}
	tier := ""
	if r.TieredInstrsPerSec > 0 {
		ratio := 0.0
		if r.InterpreterInstrsPerSec > 0 {
			ratio = r.TieredInstrsPerSec / r.InterpreterInstrsPerSec
		}
		tier = fmt.Sprintf(
			"\n  tiered execution:     %8.1f M instrs/s (%.2fx tier 0, %d promotions, bit-identical: %v)",
			r.TieredInstrsPerSec/1e6, ratio, r.TierPromotions, r.TierBitIdentical)
	}
	pac := ""
	if len(r.PACOpsElidedPct) > 0 {
		pac = fmt.Sprintf(
			"\n  pac ops elided:       STWC %.1f%%  STC %.1f%%  STL %.1f%%  Adaptive %.1f%%"+
				"\n  pac-dense fused:      %8.1f M instrs/s (%.0f%% of instrs fused)",
			r.PACOpsElidedPct[sti.STWC.String()], r.PACOpsElidedPct[sti.STC.String()],
			r.PACOpsElidedPct[sti.STL.String()], r.PACOpsElidedPct[sti.Adaptive.String()],
			r.PACDenseInstrsPerSec/1e6, r.PACDenseFusedShare*100)
	}
	mem := ""
	if r.Mem != nil {
		mem = "\n" + r.Mem.Summary()
	}
	load := ""
	if r.LoadTest != nil {
		load = "\n" + r.LoadTest.Summary()
	}
	// compile, eng and pac are appended outside the format string: they are
	// already-rendered text, and Sprintf must not re-scan them for verbs.
	return fmt.Sprintf(
		"bench trajectory datapoint %q (%s, %s/%s, %d cpus)\n"+
			"  qarma encrypt:        %8.1f ns/op\n"+
			"  pac sign (warm):      %8.1f ns/op\n"+
			"  frontend:             %8.2f ms\n"+
			"  lower:                %8.2f ms\n"+
			"  analyze:              %8.2f ms\n"+
			"  instrument:           %8.2f ms\n"+
			"  interpreter:          %8.1f M instrs/s\n"+
			"  pac cache hit rate:   %8.2f %%\n"+
			"  figure 9 wall clock:  %8.1f s\n"+
			"  figure 9 geomeans:    STWC %.3f%%  STC %.3f%%  STL %.3f%%",
		r.Label, r.GoVersion, r.GOOS, r.GOARCH, r.CPUs,
		r.QarmaEncryptNsPerOp,
		r.PACSignWarmNsPerOp,
		r.PipelineStageNsPerOp["frontend"]/1e6,
		r.PipelineStageNsPerOp["lower"]/1e6,
		r.PipelineStageNsPerOp["analyze"]/1e6,
		r.PipelineStageNsPerOp["instrument"]/1e6,
		r.InterpreterInstrsPerSec/1e6,
		r.PACCacheHitRate*100,
		r.Figure9WallSeconds,
		r.Figure9GeomeanPct[sti.STWC.String()],
		r.Figure9GeomeanPct[sti.STC.String()],
		r.Figure9GeomeanPct[sti.STL.String()]) + tier + compile + eng + pac + mem + load
}
