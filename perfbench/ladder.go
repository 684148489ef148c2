package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"rsti/internal/cminor"
	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/engine"
	"rsti/internal/lower"
	"rsti/internal/mir"
	"rsti/internal/pa"
	"rsti/internal/qarma"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// ladderProg is a program the ladder can call at every layer: its source
// for the service and an in-process compilation for the rest.
type ladderProg struct {
	name   string
	source string
	comp   *core.Compilation
	mechs  []sti.Mechanism
}

// ladder is the traced half of a --trace 1 run. While the workload keeps
// its load on, a sampler replays sampled operations through every layer
// from the benchmark's own code, one rung at a time, and a monitor samples
// the engine's gauges. The HTTP rung uses a connection of its own, so it
// measures loopback and HTTP cost rather than a wait for one of the load
// generator's connections. A layer's self time is its rung minus the rung
// below it, taken per sample; the reported figure is the median.
//
// Serving ladder, per sampled (program, mechanism), after an untimed
// /v1/compile that yields a live handle (compile-cold's traffic evicts
// handles within a second):
//
//	http       POST /v1/run over loopback
//	servehttp  service.Server.ServeHTTP in process
//	submit     engine.Engine.Submit on the service's engine
//	runctx     core.Compilation.RunContext on the sampler's vm.WorkerState
//	machine    vm.WorkerState.MachineFor, then vm.Machine.Run
//
// The serving ladder's self times are checked against the workload's own
// /v1/run p50 in the traced half, a figure the ladder does not build.
//
// Compile ladder, per sampled fresh source: cminor.Parse, cminor.Check,
// lower.Lower, sti.Analyze, rsti.InstrumentWithOptions, vm.NewImage and a
// first run, against compilecache.Cache.Get (miss) plus the first
// Compilation.RunContext as the end-to-end figure, timed apart from the
// stages through the cache's and core's own code.
type ladder struct {
	env    *runEnv
	res    *result
	srv    *server
	eng    *engine.Engine // the workload's engine, whose gauges the monitor reads
	progs  []ladderProg
	pool   []program
	ledger *pacLedger
	// firstRuns is set when the workload's /v1/run requests are each a
	// fresh program's first, which instruments and predecodes it; the
	// serving ladder then counts those two stages in its sum.
	firstRuns bool
	client    *http.Client
	cache     *compilecache.Cache
	// The RunContext rung and the machine rung each get a worker state
	// that, like an engine worker, runs the sampled sequence of programs,
	// so MachineFor pays what the served path pays when the program
	// changes between runs.
	wsRun, wsMachine *vm.WorkerState

	stopCh chan struct{}
	wg     sync.WaitGroup

	// Written by the sampler goroutine, read after stop.
	serve   map[string][]float64 // rung → ms per sample
	compile map[string][]float64 // stage → value per sample
	exec    vm.Stats             // summed over the machine rung
	execNs  int64

	// Written by the monitor goroutine, read after stop.
	queued, running []float64

	before         *metricsResp
	rejectedBefore int64
	after          *metricsResp
	rejectedDuring int64
}

// dutyCycle bounds the sampler's share of one CPU: after each sample it
// sleeps (1/dutyCycle - 1) times as long as the sample took, so the
// traced half perturbs the workload by a bounded, measured amount
// (trace.overhead_share).
const dutyCycle = 0.25

func newLadder(env *runEnv, res *result, srv *server, eng *engine.Engine, progs []ladderProg, pool []program, ledger *pacLedger) *ladder {
	return &ladder{
		env: env, res: res, srv: srv, eng: eng, progs: progs, pool: pool, ledger: ledger,
		client:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		wsRun:     vm.NewWorkerState(),
		wsMachine: vm.NewWorkerState(),
		cache:     compilecache.New(compilecache.Config{Compile: core.Compile}),
		stopCh:    make(chan struct{}),
		serve:     map[string][]float64{},
		compile:   map[string][]float64{},
	}
}

func (l *ladder) start() error {
	var err error
	if l.before, err = l.srv.metrics(); err != nil {
		return err
	}
	l.rejectedBefore = l.srv.rejected.Load()
	l.wg.Add(2)
	go l.sample()
	go l.monitor()
	return nil
}

func (l *ladder) stop() error {
	close(l.stopCh)
	l.wg.Wait()
	l.client.CloseIdleConnections()
	l.rejectedDuring = l.srv.rejected.Load() - l.rejectedBefore
	var err error
	l.after, err = l.srv.metrics()
	return err
}

func (l *ladder) monitor() {
	defer l.wg.Done()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-t.C:
			st := l.eng.Stats()
			l.queued = append(l.queued, float64(st.Queued))
			l.running = append(l.running, float64(st.Running))
		}
	}
}

func (l *ladder) sample() {
	defer l.wg.Done()
	for i := 0; ; i++ {
		t0 := time.Now()
		l.serveSample(i)
		l.compileSample(i)
		select {
		case <-l.stopCh:
			return
		case <-time.After(time.Duration(float64(time.Since(t0)) * (1/dutyCycle - 1))):
		}
	}
}

func (l *ladder) pick(i int) (*ladderProg, sti.Mechanism) {
	r := splitmix{s: l.env.seed ^ uint64(i)*0xA24BAED4963EE407}
	p := &l.progs[r.intn(len(l.progs))]
	return p, p.mechs[i%len(p.mechs)]
}

// serveSample replays one sampled run at every serving rung.
func (l *ladder) serveSample(i int) {
	p, m := l.pick(i)
	ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
	defer cancel()
	t := &l.res.tally
	var cr compileResp
	if err := l.srv.postWith(ctx, l.client, "/v1/compile", mustJSON(map[string]string{"source": p.source}), &cr); err != nil {
		t.fail(failureCause("ladder.compile", err), err)
		return
	}
	body := runRequest(cr.Program, m.String())

	t0 := time.Now()
	var out runResp
	err := l.srv.postWith(ctx, l.client, "/v1/run", body, &out)
	rt := time.Since(t0)
	ok := checkHTTPRun(l.env, t, l.ledger, "ladder.http", p.name, m, &out, err)

	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	t0 = time.Now()
	l.srv.svc.ServeHTTP(rec, req)
	sh := time.Since(t0)
	out = runResp{}
	err = nil
	if rec.Code != http.StatusOK {
		err = &statusError{rec.Code, rec.Body.String()}
	} else {
		err = json.Unmarshal(rec.Body.Bytes(), &out)
	}
	ok = checkHTTPRun(l.env, t, l.ledger, "ladder.servehttp", p.name, m, &out, err) && ok

	t0 = time.Now()
	res, err := l.srv.svc.Engine().Submit(ctx, engine.Job{Comp: p.comp, Mech: m})
	sub := time.Since(t0)
	ok = checkRun(l.env, t, "ladder.submit", p.name, m, res, err) && ok

	t0 = time.Now()
	res, err = p.comp.RunContext(ctx, m, core.RunConfig{Worker: l.wsRun})
	rc := time.Since(t0)
	ok = checkRun(l.env, t, "ladder.runcontext", p.name, m, res, err) && ok

	mf, run, st, o, err := l.machineRun(ctx, p.comp, m)
	if err == nil {
		err = l.env.ref.check(p.name, m, o)
	}
	if err != nil {
		t.fail("ladder.machine.mismatch", err)
		return
	}
	t.ok()
	if !ok {
		return
	}
	l.serve["http"] = append(l.serve["http"], ms(rt))
	l.serve["servehttp"] = append(l.serve["servehttp"], ms(sh))
	l.serve["submit"] = append(l.serve["submit"], ms(sub))
	l.serve["runctx"] = append(l.serve["runctx"], ms(rc))
	l.serve["machinefor"] = append(l.serve["machinefor"], ms(mf))
	l.serve["run"] = append(l.serve["run"], ms(run))
	addStats(&l.exec, st)
	l.execNs += run.Nanoseconds()
}

// machineRun does what RunContext does with an engine worker's state —
// build lookup, default options, MachineFor, Run — timing MachineFor and
// Run apart.
func (l *ladder) machineRun(ctx context.Context, c *core.Compilation, m sti.Mechanism) (mf, run time.Duration, st vm.Stats, o outcome, err error) {
	b, err := c.Build(m)
	if err != nil {
		return 0, 0, st, o, err
	}
	return runImage(ctx, l.wsMachine, b.Prog, b.Image(), m)
}

// runImage runs prog from img on ws under the configuration RunContext
// gives mechanism m.
func runImage(ctx context.Context, ws *vm.WorkerState, prog *mir.Program, img *vm.Image, m sti.Mechanism) (mf, run time.Duration, st vm.Stats, o outcome, err error) {
	opts := vm.DefaultOptions()
	if m == sti.PARTS {
		opts.Cost.PAC = core.PARTSPACCost
	}
	var out bytes.Buffer
	opts.Output = &out
	opts.Worker = ws
	opts.Image = img
	t0 := time.Now()
	mach := ws.MachineFor(prog, opts)
	mf = time.Since(t0)
	mach.SetContext(ctx)
	t0 = time.Now()
	exit, err := mach.Run()
	run = time.Since(t0)
	if err != nil {
		return mf, run, mach.Stats, o, fmt.Errorf("run: %w", err)
	}
	st = mach.Stats
	return mf, run, st, outcome{exit, out.String(), st.Cycles, st.Instrs, &[3]int64{st.PacSigns, st.PacAuths, st.PacStrips}}, nil
}

func addStats(dst *vm.Stats, s vm.Stats) {
	dst.Instrs += s.Instrs
	dst.PacSigns += s.PacSigns
	dst.PacAuths += s.PacAuths
	dst.PacStrips += s.PacStrips
	dst.FusedInstrs += s.FusedInstrs
	dst.ThreadedInstrs += s.ThreadedInstrs
	dst.PACCacheHits += s.PACCacheHits
	dst.PACCacheMisses += s.PACCacheMisses
}

// compileSample runs one fresh source through every compile stage, then
// through the compile cache and a first run as a whole.
func (l *ladder) compileSample(i int) {
	r := splitmix{s: l.env.seed ^ uint64(i)*0x9FB21C651E98DF25}
	base := l.pool[r.intn(len(l.pool))]
	m := coldMechs[i%len(coldMechs)]
	src := fmt.Sprintf("%s\n/* ladder %d.%d */\n", base.source, l.env.seed, i)
	ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
	defer cancel()
	v := map[string]float64{}
	err := func() error {
		t0 := time.Now()
		f, err := cminor.Parse(src)
		v["parse"] = ms(time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = cminor.Check(f)
		v["check"] = ms(time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		prog, err := lower.Lower(f)
		v["lower"] = ms(time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		an := sti.Analyze(prog)
		v["analyze"] = ms(time.Since(t0))
		t0 = time.Now()
		ip, st, err := rsti.InstrumentWithOptions(prog, an, m, rsti.Options{})
		v["instrument"] = ms(time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		img := vm.NewImage(ip)
		v["predecode"] = ms(time.Since(t0))
		mf, run, _, o, err := runImage(ctx, l.wsMachine, ip, img, m)
		v["exec"] = ms(mf + run)
		if err != nil {
			return err
		}
		if err := l.env.ref.check(base.name, m, o); err != nil {
			return err
		}
		v["ir_instrs"] = float64(countInstrs(prog))
		v["rsti_types"] = float64(len(an.Types))
		v["pac_sites"] = float64(st.Signs + st.Auths + st.Strips)

		t0 = time.Now()
		c, err := l.cache.Get(src)
		v["miss"] = ms(time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := l.cache.Get(src); err != nil {
			return err
		}
		v["hit_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3
		t0 = time.Now()
		res, err := c.RunContext(ctx, m, core.RunConfig{Worker: l.wsRun})
		v["first"] = ms(time.Since(t0))
		if err == nil && res.Err != nil {
			err = res.Err
		}
		if err != nil {
			return err
		}
		return l.env.ref.check(base.name, m, resultOutcome(res))
	}()
	if err != nil {
		l.res.fail("ladder.compile.mismatch", fmt.Errorf("%s/%s: %w", base.name, m, err))
		return
	}
	l.res.ok()
	for k, x := range v {
		l.compile[k] = append(l.compile[k], x)
	}
}

func countInstrs(p *mir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// diffMedian is the median over samples of a[i] minus the sum of the
// other series at i.
func diffMedian(a []float64, minus ...[]float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i]
		for _, m := range minus {
			d[i] -= m[i]
		}
	}
	return median(d)
}

// run splits a traced run in two: the workload runs untraced for half of
// --seconds, then again beside the ladder. work runs the workload for d
// from request index base and returns its p50 latency and the p50 of its
// /v1/run requests, both in ms.
func (l *ladder) run(work func(base int64, d time.Duration) (p50, runP50 float64)) error {
	half := time.Duration(l.env.seconds / 2 * float64(time.Second))
	untraced, _ := work(0, half)
	if err := l.start(); err != nil {
		return err
	}
	traced, tracedRun := work(1<<39, half)
	if err := l.stop(); err != nil {
		return err
	}
	return l.finish(untraced, traced, tracedRun)
}

// finish runs the quiet-phase measurements and sets every per-layer
// metric. untraced and traced are the workload's p50 latency in the two
// halves of the run, tracedRun the p50 of its /v1/run requests in the
// traced half.
func (l *ladder) finish(untraced, traced, tracedRun float64) error {
	res := l.res
	s, c := l.serve, l.compile
	if len(s["http"]) == 0 || len(c["parse"]) == 0 {
		return errors.New("ladder: no clean sample in the traced half")
	}
	res.note("ladder: %d serving samples, %d compile samples, %d monitor ticks", len(s["http"]), len(c["parse"]), len(l.queued))

	// Serving ladder.
	self := map[string]float64{
		"net.self_ms":     diffMedian(s["http"], s["servehttp"]),
		"service.self_ms": diffMedian(s["servehttp"], s["submit"]),
		"engine.wait_ms":  diffMedian(s["submit"], s["runctx"]),
		"core.self_ms":    diffMedian(s["runctx"], s["machinefor"], s["run"]),
		"vm.reset_ms":     median(s["machinefor"]),
		"vm.exec_ms":      median(s["run"]),
	}
	sum := 0.0
	for k, v := range self {
		res.set(k, v, "ms")
		sum += v
	}
	if l.firstRuns {
		sum += median(c["instrument"]) + median(c["predecode"])
	}
	l.unexplained("serving", sum, tracedRun)
	res.set("engine.queued_p99", quantile(l.queued, 0.99), "count")
	busy := 0.0
	for _, r := range l.running {
		busy += r
	}
	res.set("engine.idle_share", 1-busy/float64(max(len(l.running), 1))/float64(l.eng.Workers()), "share")
	res.set("service.rejected", float64(l.rejectedDuring), "count")

	// Execution layers.
	e := l.exec
	res.set("vm.minstr_per_s", float64(e.Instrs)/(float64(l.execNs)/1e9)/1e6, "Minstr/s")
	res.set("vm.fused_share", float64(e.FusedInstrs)/float64(e.Instrs), "share")
	res.set("vm.threaded_share", float64(e.ThreadedInstrs)/float64(e.Instrs), "share")
	res.set("vm.pac_ops_per_kinstr", 1000*float64(e.PacSigns+e.PacAuths+e.PacStrips)/float64(e.Instrs), "1/kinstr")
	res.set("pa.memo_hit_rate", float64(e.PACCacheHits)/float64(max(e.PACCacheHits+e.PACCacheMisses, 1)), "share")

	// Compile ladder.
	stages := map[string]string{
		"parse": "cminor.parse_ms", "check": "cminor.check_ms", "lower": "lower.lower_ms",
		"analyze": "sti.analyze_ms", "instrument": "rsti.instrument_ms", "predecode": "vm.predecode_ms",
	}
	sum = median(c["exec"])
	for k, name := range stages {
		res.set(name, median(c[k]), "ms")
		sum += median(c[k])
	}
	e2e := make([]float64, len(c["miss"]))
	for i := range e2e {
		e2e[i] = c["miss"][i] + c["first"][i]
	}
	l.unexplained("compile", sum, median(e2e))
	res.set("compilecache.miss_ms", median(c["miss"]), "ms")
	res.set("compilecache.hit_us", median(c["hit_us"]), "us")
	hits := l.after.CompileCache.Hits - l.before.CompileCache.Hits
	misses := l.after.CompileCache.Misses - l.before.CompileCache.Misses
	res.set("compilecache.hit_rate", float64(hits)/float64(max(hits+misses, 1)), "share")
	res.set("compilecache.evictions", float64(l.after.CompileCache.Evictions-l.before.CompileCache.Evictions), "count")
	res.set("lower.ir_instrs", median(c["ir_instrs"]), "count")
	res.set("sti.rsti_types", median(c["rsti_types"]), "count")
	res.set("rsti.pac_sites", median(c["pac_sites"]), "count")

	res.set("trace.overhead_share", traced/untraced-1, "share")
	res.note("trace: workload p50 %.4f ms untraced, %.4f ms traced", untraced, traced)

	// Quiet phase: the load has stopped.
	res.set("vm.allocs_per_run", l.allocsPerRun(), "count")
	signWarm, authWarm, signCold, enc := paBench()
	res.set("pa.sign_warm_ns", signWarm, "ns")
	res.set("pa.auth_warm_ns", authWarm, "ns")
	res.set("pa.sign_cold_ns", signCold, "ns")
	res.set("qarma.encrypt_ns", enc, "ns")
	return nil
}

// unexplained reports 1 - (sum of self times / end-to-end) for a ladder
// and flags it when its size is above 10%.
func (l *ladder) unexplained(name string, sum, e2e float64) {
	u := 1 - sum/e2e
	l.res.set("ladder."+name+".unexplained_share", u, "share")
	flag := ""
	if u > 0.10 || u < -0.10 {
		flag = "  FLAG: layers do not sum to the end-to-end figure within 10%"
	}
	l.res.note("ladder.%s: self times sum to %.4f ms of %.4f ms end to end (unexplained %.3f)%s", name, sum, e2e, u, flag)
}

// allocsPerRun is the median heap allocation count of one warm
// RunContext on a worker, measured with the workload idle.
func (l *ladder) allocsPerRun() float64 {
	var v []float64
	var a, b runtime.MemStats
	for i := 0; i < min(24, len(l.progs)); i++ {
		p, m := l.pick(i)
		for k := 0; k < 2; k++ {
			runtime.ReadMemStats(&a)
			res, err := p.comp.RunContext(context.Background(), m, core.RunConfig{Worker: l.wsRun})
			runtime.ReadMemStats(&b)
			checkRun(l.env, &l.res.tally, "ladder.allocs", p.name, m, res, err)
			if k == 1 {
				v = append(v, float64(b.Mallocs-a.Mallocs))
			}
		}
	}
	return median(v)
}

// sink keeps the micro-benchmark results alive.
var sink uint64

// paBench times pa.Unit.Sign and Auth on memo hits, Sign on memo misses,
// and qarma.Cipher.Encrypt, each as the median of 5 repetitions, in ns
// per call.
func paBench() (signWarm, authWarm, signCold, encrypt float64) {
	const n = 200_000
	u := pa.NewUnit(pa.DefaultConfig(), pa.GenerateKeys(0xC0FFEE))
	var ptrs, mods, signed [64]uint64
	for i := range ptrs {
		ptrs[i] = 0x10_0000 + uint64(i)*64
		mods[i] = uint64(i) * 0x9E3779B97F4A7C15
		signed[i] = u.Sign(ptrs[i], pa.KeyDA, mods[i])
	}
	cipher := qarma.New(0x84be85ce9804e94b, 0xec2802d4e0a488e9, qarma.StandardRounds)
	per := func(f func(rep int)) float64 {
		var v []float64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			f(rep)
			v = append(v, float64(time.Since(t0).Nanoseconds())/n)
		}
		return median(v)
	}
	signWarm = per(func(int) {
		for i := 0; i < n; i++ {
			sink ^= u.Sign(ptrs[i&63], pa.KeyDA, mods[i&63])
		}
	})
	authWarm = per(func(int) {
		for i := 0; i < n; i++ {
			p, _ := u.Auth(signed[i&63], pa.KeyDA, mods[i&63])
			sink ^= p
		}
	})
	signCold = per(func(rep int) {
		for i := 0; i < n; i++ {
			sink ^= u.Sign(0x1000_0000+uint64(rep*n+i)*16, pa.KeyDA, uint64(i))
		}
	})
	encrypt = per(func(rep int) {
		for i := 0; i < n; i++ {
			sink ^= cipher.Encrypt(uint64(i), sink)
		}
	})
	return signWarm, authWarm, signCold, encrypt
}
