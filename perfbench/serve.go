package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsti/internal/core"
)

// serveRate is serve-hot's fixed open-loop arrival rate, about a fifth of
// the capacity phase B measures on a 2-CPU host (650-780/s). At two thirds
// of capacity the run-to-run spread of the median latency was 13-25%: a
// request that switches programs on a worker builds a fresh 5 MiB machine
// and pays GC assist for it, and queueing amplifies that. At this rate the
// spread is about 6%. It is a constant, not a calibration, so every commit
// is offered the same load.
const serveRate = 150.0

// Open-loop honesty bounds: past either, the generator did not deliver the
// schedule it claims and the run is reported invalid.
const (
	maxLagP99     = 50 * time.Millisecond // how late a due request may leave an idle connection
	maxBacklogPct = 1.0                   // requests due before the phase ended but sent after it
)

// hot is serve-hot's state: the booted service and the pre-compiled pool.
type hot struct {
	env     *runEnv
	res     *result
	srv     *server
	pool    []program
	handles []string
	bodies  [][][]byte // [program][mechanism] request bodies
	ledger  *pacLedger // runs answered since the warm-up
}

// bootServe boots the service, compiles the pool over /v1/compile and runs
// every (program, mechanism) once, so the measured phases find every
// build instrumented and predecoded.
func bootServe(env *runEnv, res *result, pool []program) (*server, []string, error) {
	srv, err := bootServer(env.workers)
	if err != nil {
		return nil, nil, err
	}
	handles := make([]string, len(pool))
	errs := make([]error, len(pool))
	forEach(len(pool), env.workers, func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
		defer cancel()
		var c compileResp
		errs[i] = srv.post(ctx, "/v1/compile", mustJSON(map[string]string{"source": pool[i].source}), &c)
		handles[i] = c.Program
		for _, m := range serveMechs {
			if errs[i] != nil {
				return
			}
			var out runResp
			err := srv.post(ctx, "/v1/run", runRequest(c.Program, m.String()), &out)
			if !checkHTTPRun(env, &res.tally, &pacLedger{}, "setup", pool[i].name, m, &out, err) {
				errs[i] = fmt.Errorf("set-up run of %s/%s failed", pool[i].name, m)
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		srv.close()
		return nil, nil, err
	}
	return srv, handles, nil
}

func serveHot(env *runEnv) (*result, error) {
	h := &hot{env: env, res: newResult(), pool: servePool(), ledger: &pacLedger{}}
	setup, err := timedMedian(5, func(last bool) error {
		srv, handles, err := bootServe(env, h.res, h.pool)
		if err != nil {
			return err
		}
		if !last {
			srv.close()
			return nil
		}
		h.srv, h.handles = srv, handles
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.srv.close()
	h.bodies = make([][][]byte, len(h.pool))
	for i := range h.pool {
		for _, m := range serveMechs {
			h.bodies[i] = append(h.bodies[i], runRequest(h.handles[i], m.String()))
		}
	}

	closedLoop(env.workers, 1<<40, 500*time.Millisecond, h.do) // warm-up, not reported
	h.ledger = &pacLedger{}
	before, err := h.srv.metrics()
	if err != nil {
		return nil, err
	}
	res := h.res
	if !env.traced {
		a := h.openLoop(0, time.Duration(0.6*env.seconds*float64(time.Second)))
		rps := closedLoop(env.workers, 1<<41, time.Duration(0.4*env.seconds*float64(time.Second)), h.do)
		res.set("setup_s", setup, "s")
		res.set("p50_ms", median(a.lat), "ms")
		res.set("throughput_per_s", rps, "1/s")
		res.set("live_heap_mb", liveHeapMB(), "MB")
		res.note("serve-hot setup_s %.4f s (median of 5 boots: compile %d programs, run each under %d mechanisms)", setup, len(h.pool), len(serveMechs))
		res.note("serve-hot run_p50_ms %.4f ms  run_p95_ms %.4f ms  run_p99_ms %.4f ms  (%d samples, open loop at %.0f/s, latency from intended send)",
			median(a.lat), quantile(a.lat, 0.95), quantile(a.lat, 0.99), len(a.lat), serveRate)
		res.note("serve-hot run_capacity_rps %.1f 1/s  (closed loop, %d connections)", rps, env.workers)
		a.judge(res)
	} else {
		progs, err := h.ladderProgs()
		if err != nil {
			return nil, err
		}
		l := newLadder(env, res, h.srv, h.srv.svc.Engine(), progs, h.pool, h.ledger)
		err = l.run(func(base int64, d time.Duration) (float64, float64) {
			ph := h.openLoop(base, d)
			ph.judge(res)
			return median(ph.lat), median(ph.lat)
		})
		if err != nil {
			return nil, err
		}
	}
	after, err := h.srv.metrics()
	if err != nil {
		return nil, err
	}
	checkLedger(res, h.ledger, before, after)
	return res, reportOptProbe(res, env.traced)
}

// ladderProgs compiles the pool in-process so the ladder can call the
// engine and core layers on the same programs the service holds.
func (h *hot) ladderProgs() ([]ladderProg, error) {
	out := make([]ladderProg, len(h.pool))
	for i, p := range h.pool {
		c, err := core.Compile(p.source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[i] = ladderProg{name: p.name, source: p.source, comp: c, mechs: serveMechs}
	}
	return out, nil
}

// checkLedger compares the service's PAC-op counters with the reference
// sums of the runs it answered. Any failed request may have executed
// partially, so the comparison is only exact, and only made, without one.
func checkLedger(res *result, l *pacLedger, before, after *metricsResp) {
	if _, failed, _ := res.snapshot(); failed > 0 {
		res.note("pac_ops aggregate check skipped: %d failed requests may have run partially", failed)
		return
	}
	if err := l.check(before, after); err != nil {
		res.fail("pac_ops.mismatch", err)
		return
	}
	res.note("pac_ops aggregate check: service counters equal the reference sums")
}

// pick returns request k's program and mechanism: the program is drawn
// from the seed, the mechanism rotates.
func (h *hot) pick(k int64) (int, int) {
	r := splitmix{s: h.env.seed*0x9E3779B97F4A7C15 ^ uint64(k)}
	return r.intn(len(h.pool)), int(k % int64(len(serveMechs)))
}

// do sends request k and reports whether it succeeded.
func (h *hot) do(k int64) bool {
	p, m := h.pick(k)
	ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
	defer cancel()
	var out runResp
	err := h.srv.post(ctx, "/v1/run", h.bodies[p][m], &out)
	return checkHTTPRun(h.env, &h.res.tally, h.ledger, "run", h.pool[p].name, serveMechs[m], &out, err)
}

// openPhase is one open-loop phase's measurements.
type openPhase struct {
	lat       []float64 // ms from each successful request's intended send time to its answer
	lag       []float64 // ms an idle connection woke after a request was due
	scheduled int
	backlog   int // due before the phase ended, sent after it
}

// openLoop offers Poisson arrivals at serveRate for d over at most
// nproc connections. Each request is timed from its intended send time,
// so time spent waiting for a free connection counts against the system.
// A failed request counts in the tally, not in the latencies.
func (h *hot) openLoop(base int64, d time.Duration) *openPhase {
	r := splitmix{s: h.env.seed ^ uint64(base) ^ 0x0e1}
	var due []time.Duration
	for t := 0.0; ; {
		t += -math.Log(r.float()) / serveRate
		if t >= d.Seconds() {
			break
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	ph := &openPhase{scheduled: len(due)}
	var lat, lag samples
	var backlog atomic.Int64
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < h.env.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(due)); k = next.Add(1) - 1 {
				at := start.Add(due[k])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
					lag.add(time.Since(at))
				} else if time.Since(start) > d {
					backlog.Add(1)
				}
				if h.do(base + k) {
					lat.add(time.Since(at))
				}
			}
		}()
	}
	wg.Wait()
	ph.lat, ph.lag, ph.backlog = lat.values(), lag.values(), int(backlog.Load())
	return ph
}

// judge reports the generator's own figures and marks the run invalid
// when it fell behind its schedule.
func (ph *openPhase) judge(res *result) {
	lagP99 := quantile(ph.lag, 0.99)
	pct := 100 * float64(ph.backlog) / float64(max(ph.scheduled, 1))
	res.note("loadgen.lag_p99_ms %.4f ms (%d idle wake-ups)  backlog %d of %d scheduled (%.2f%%)",
		lagP99, len(ph.lag), ph.backlog, ph.scheduled, pct)
	if lagP99 > ms(maxLagP99) || pct > maxBacklogPct {
		res.invalid = fmt.Sprintf("open-loop generator fell behind: lag p99 %.3f ms (bound %.1f), backlog %.2f%% (bound %.1f%%)",
			lagP99, ms(maxLagP99), pct, maxBacklogPct)
	}
}

// liveHeapMB forces a collection and returns the heap still live.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
