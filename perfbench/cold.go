package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rsti/internal/core"
	"rsti/internal/sti"
)

// cold is compile-cold's state: the booted service and the base sources.
type cold struct {
	env           *runEnv
	res           *result
	srv           *server
	small, table3 []program
	ledger        *pacLedger // runs answered since set-up
}

// boot boots the service and compiles and runs every base source once
// under None, which checks the pool against the reference and warms the
// process; the sessions' fresh sources still miss every cache.
func (c *cold) boot() (*server, error) {
	srv, err := bootServer(c.env.workers)
	if err != nil {
		return nil, err
	}
	bases := append(append([]program(nil), c.small...), c.table3...)
	errs := make([]error, len(bases))
	forEach(len(bases), c.env.workers, func(i int) {
		if !c.session(srv, "setup", bases[i].source, bases[i].name, sti.None, nil) {
			errs[i] = fmt.Errorf("set-up session of %s failed", bases[i].name)
		}
	})
	if err := errors.Join(errs...); err != nil {
		srv.close()
		return nil, err
	}
	return srv, nil
}

// session compiles src over /v1/compile and makes its first /v1/run. It
// reports whether both succeeded and, when runLat is not nil, records the
// run's latency there.
func (c *cold) session(srv *server, op, src, base string, mech sti.Mechanism, runLat *samples) bool {
	ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
	defer cancel()
	var cr compileResp
	if err := srv.post(ctx, "/v1/compile", mustJSON(map[string]string{"source": src}), &cr); err != nil {
		c.res.fail(failureCause(op+".compile", err), err)
		return false
	}
	var out runResp
	t0 := time.Now()
	err := srv.post(ctx, "/v1/run", runRequest(cr.Program, mech.String()), &out)
	rt := time.Since(t0)
	if !checkHTTPRun(c.env, &c.res.tally, c.ledger, op+".run", base, mech, &out, err) {
		return false
	}
	if runLat != nil {
		runLat.add(rt)
	}
	return true
}

// plan returns session i's source, its base program and its mechanism.
// Three sessions in four compile a fresh source: a base plus a unique
// comment, so the compile cache misses while the modelled run is the
// base's. Every fifth index takes the next Table 3-sized base in turn, from
// an offset the seed sets; the rest draw a small one. A fixed pattern
// rather than a draw keeps the mix of large sources in the cache, and so
// the live heap, the same for every seed. The fourth repeats a fresh source from 5 to 48 sessions back,
// well inside the service's 128-entry cache, so it hits.
func (c *cold) plan(i int64) (string, program, sti.Mechanism) {
	mech := coldMechs[i%int64(len(coldMechs))]
	if q := i / 4; i%4 == 3 && q > 0 {
		r := splitmix{s: c.env.seed ^ uint64(i)*0xD1B54A32D192ED03}
		i = (q-1-int64(r.intn(int(min(q, 12)))))*4 + int64(r.intn(3))
	}
	r := splitmix{s: c.env.seed*0x9E3779B97F4A7C15 ^ uint64(i)}
	base := c.small[r.intn(len(c.small))]
	if i%5 == 0 {
		base = c.table3[(int(c.env.seed)+int(i/5))%len(c.table3)]
	}
	return fmt.Sprintf("%s\n/* session %d.%d */\n", base.source, c.env.seed, i), base, mech
}

func compileCold(env *runEnv) (*result, error) {
	c := &cold{env: env, res: newResult(), ledger: &pacLedger{}}
	c.small, c.table3 = coldPool()
	setup, err := timedMedian(5, func(last bool) error {
		srv, err := c.boot()
		if err != nil {
			return err
		}
		if !last {
			srv.close()
			return nil
		}
		c.srv = srv
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer c.srv.close()
	c.ledger = &pacLedger{}
	before, err := c.srv.metrics()
	if err != nil {
		return nil, err
	}
	res := c.res
	if !env.traced {
		lat, _, rate := c.loop(0, time.Duration(env.seconds*float64(time.Second)))
		res.set("setup_s", setup, "s")
		res.set("p50_ms", median(lat), "ms")
		res.set("throughput_per_s", rate, "1/s")
		res.set("live_heap_mb", liveHeapMB(), "MB")
		res.note("compile-cold setup_s %.4f s (median of 5 boots: compile and run %d base sources)", setup, len(c.small)+len(c.table3))
		res.note("compile-cold cold_p50_ms %.4f ms  cold_p95_ms %.4f ms  cold_p99_ms %.4f ms  (%d sessions, closed loop, %d clients)",
			median(lat), quantile(lat, 0.95), quantile(lat, 0.99), len(lat), env.workers)
		res.note("compile-cold cold_sessions_per_s %.2f 1/s", rate)
	} else {
		var progs []ladderProg
		for _, p := range append(append([]program(nil), c.small...), c.table3...) {
			comp, err := core.Compile(p.source)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			progs = append(progs, ladderProg{name: p.name, source: p.source, comp: comp, mechs: coldMechs})
		}
		l := newLadder(env, res, c.srv, c.srv.svc.Engine(), progs, append(c.small, c.table3...), c.ledger)
		l.firstRuns = true
		err := l.run(func(base int64, d time.Duration) (float64, float64) {
			lat, runLat, _ := c.loop(base, d)
			return median(lat), median(runLat)
		})
		if err != nil {
			return nil, err
		}
	}
	after, err := c.srv.metrics()
	if err != nil {
		return nil, err
	}
	checkLedger(res, c.ledger, before, after)
	hits, misses := after.CompileCache.Hits-before.CompileCache.Hits, after.CompileCache.Misses-before.CompileCache.Misses
	res.note("compile-cold compile cache: %d hits, %d misses (hit share %.3f, planned 0.25), %d evictions",
		hits, misses, float64(hits)/float64(max(hits+misses, 1)), after.CompileCache.Evictions-before.CompileCache.Evictions)
	return res, reportOptProbe(res, env.traced)
}

// loop runs sessions from nproc clients for d, returning each successful
// session's latency and that of its /v1/run, in ms, and successful
// sessions per second.
func (c *cold) loop(base int64, d time.Duration) (lat, runLat []float64, rate float64) {
	var all, runs samples
	rate = closedLoop(c.env.workers, base, d, func(k int64) bool {
		src, b, mech := c.plan(k)
		t0 := time.Now()
		if !c.session(c.srv, "session", src, b.name, mech, &runs) {
			return false
		}
		all.add(time.Since(t0))
		return true
	})
	return all.values(), runs.values(), rate
}
