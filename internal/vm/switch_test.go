package vm_test

import (
	"context"
	"fmt"
	"testing"

	"rsti/internal/core"
	"rsti/internal/difftest"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// switchMechs mixes the baseline, PARTS (whose PAC cost model differs, so
// the cycle table changes between runs) and the three RSTI mechanisms.
var switchMechs = []sti.Mechanism{sti.None, sti.PARTS, sti.STWC, sti.STC, sti.STL}

// TestProgramSwitchBitIdentical drives one WorkerState through a seeded
// sequence of runs that switches program, mechanism and step budget on
// almost every run, on both execution tiers. Each run must report the
// exit, output, trap and Stats of a fresh machine running the same build.
// The PAC memo's hit/miss split is the one exception: the worker's unit
// is warm, so only their sum (the PAC computations performed) must agree.
func TestProgramSwitchBitIdentical(t *testing.T) {
	const nProgs, nRuns = 8, 120
	comps := make([]*core.Compilation, nProgs)
	for i := range comps {
		c, err := core.Compile(difftest.Generate(difftest.ConfigForSeed(uint64(1000 + i))))
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		comps[i] = c
	}
	for _, tier := range []core.TierMode{core.TierOff, core.TierOn} {
		cfg := func(budget int64) core.RunConfig {
			// A threshold of one promotes every function on its first
			// execution, so after the warmup below the tier state no
			// longer changes and ThreadedInstrs is comparable.
			return core.RunConfig{Tier: tier, StepBudget: budget, Options: vm.Options{TierThreshold: 1}}
		}
		for _, c := range comps {
			for _, mech := range switchMechs {
				if _, err := c.Run(mech, cfg(0)); err != nil {
					t.Fatalf("warmup: %v", err)
				}
			}
		}
		ws := vm.NewWorkerState()
		var trapped, threaded int64
		r := uint64(0x5EED)
		for i := 0; i < nRuns; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			c := comps[r>>33%nProgs]
			mech := switchMechs[r>>40%uint64(len(switchMechs))]
			var budget int64
			if r>>50%6 == 0 {
				budget = 300 // trap mid-run, leaving dirty memory and frames behind
			}
			want, err := c.Run(mech, cfg(budget))
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			wc := cfg(budget)
			wc.Worker = ws
			got, err := c.RunContext(context.Background(), mech, wc)
			if err != nil {
				t.Fatalf("worker run: %v", err)
			}
			if d := diffRuns(got, want); d != "" {
				t.Fatalf("tier %d, run %d (%s, budget %d): worker run differs from a fresh machine: %s", tier, i, mech, budget, d)
			}
			if got.Trap != nil {
				trapped++
			}
			threaded += got.Stats.ThreadedInstrs
		}
		if trapped == 0 || (tier == core.TierOn) != (threaded > 0) {
			t.Fatalf("tier %d: sequence exercised %d trapped runs and %d threaded instructions", tier, trapped, threaded)
		}
	}
}

// diffRuns describes how a worker run differs from a fresh one ("" when
// they agree).
func diffRuns(got, want *core.RunResult) string {
	if got.Exit != want.Exit || got.Output != want.Output {
		return fmt.Sprintf("exit/output (%d, %q), want (%d, %q)", got.Exit, got.Output, want.Exit, want.Output)
	}
	if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) || (got.Trap == nil) != (want.Trap == nil) ||
		(got.Trap != nil && *got.Trap != *want.Trap) {
		return fmt.Sprintf("trap %v, want %v", got.Err, want.Err)
	}
	gs, ws := got.Stats, want.Stats
	if gs.PACCacheHits+gs.PACCacheMisses != ws.PACCacheHits+ws.PACCacheMisses {
		return fmt.Sprintf("PAC computations %d, want %d", gs.PACCacheHits+gs.PACCacheMisses, ws.PACCacheHits+ws.PACCacheMisses)
	}
	gs.PACCacheHits, gs.PACCacheMisses = ws.PACCacheHits, ws.PACCacheMisses
	if gs != ws {
		return fmt.Sprintf("stats\n got %+v\nwant %+v", gs, ws)
	}
	return ""
}
