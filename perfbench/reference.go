package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"rsti/internal/core"
	"rsti/internal/sti"
)

// refEntry is one (program, mechanism) run as pinned by reference.json.
type refEntry struct {
	Exit         int64  `json:"exit"`
	OutputSHA256 string `json:"output_sha256"`
	Cycles       int64  `json:"cycles"`
	Instrs       int64  `json:"instrs"`
	PacSigns     int64  `json:"pac_signs"`
	PacAuths     int64  `json:"pac_auths"`
	PacStrips    int64  `json:"pac_strips"`
}

// reference maps program name → mechanism name → pinned run.
type reference map[string]map[string]refEntry

//go:embed reference.json
var referenceJSON []byte

// goldenCycles are the modelled cycles the repository's own golden test
// pins (internal/eval/golden_test.go). The reference file must agree with
// them, so a reference regenerated from a build that moved modelled
// numbers is refused instead of silently adopted.
var goldenCycles = map[string]map[string]int64{
	"SPEC2017/500.perlbench_r": {"none": 2299402, "rsti-stwc": 2710120, "rsti-stc": 2590092, "rsti-stl": 2860432},
	"nbench/numeric-sort":      {"none": 10409068, "rsti-stwc": 10409068, "rsti-stc": 10409068, "rsti-stl": 10409068},
}

func loadReference() (reference, error) {
	var f struct {
		Programs reference `json:"programs"`
	}
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if err := checkGolden(f.Programs); err != nil {
		return nil, err
	}
	return f.Programs, nil
}

func checkGolden(ref reference) error {
	for prog, mechs := range goldenCycles {
		for mech, want := range mechs {
			if got := ref[prog][mech].Cycles; got != want {
				return fmt.Errorf("reference.json: %s/%s cycles = %d, golden = %d", prog, mech, got, want)
			}
		}
	}
	return nil
}

// outcome is what a workload observed for one run. pac is nil where the
// path does not expose per-run PAC-op counts (an HTTP response).
type outcome struct {
	exit           int64
	output         string
	cycles, instrs int64
	pac            *[3]int64
}

func resultOutcome(res *core.RunResult) outcome {
	return outcome{res.Exit, res.Output, res.Stats.Cycles, res.Stats.Instrs,
		&[3]int64{res.Stats.PacSigns, res.Stats.PacAuths, res.Stats.PacStrips}}
}

func outputDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// check compares o with the reference: exit and output against the None
// run of the same program, cycles, instrs and PAC-op counts against the
// mechanism's own entry.
func (r reference) check(prog string, mech sti.Mechanism, o outcome) error {
	base, ok := r[prog]["none"]
	want, ok2 := r[prog][mech.String()]
	if !ok || !ok2 {
		return fmt.Errorf("mismatch: %s/%s has no reference entry", prog, mech)
	}
	switch {
	case o.exit != base.Exit:
		return fmt.Errorf("mismatch: %s/%s exit %d, none run exits %d", prog, mech, o.exit, base.Exit)
	case outputDigest(o.output) != base.OutputSHA256:
		return fmt.Errorf("mismatch: %s/%s output differs from the none run", prog, mech)
	case o.cycles != want.Cycles || o.instrs != want.Instrs:
		return fmt.Errorf("mismatch: %s/%s cycles/instrs %d/%d, reference %d/%d",
			prog, mech, o.cycles, o.instrs, want.Cycles, want.Instrs)
	case o.pac != nil && *o.pac != [3]int64{want.PacSigns, want.PacAuths, want.PacStrips}:
		return fmt.Errorf("mismatch: %s/%s PAC ops %v, reference %v", prog, mech,
			*o.pac, [3]int64{want.PacSigns, want.PacAuths, want.PacStrips})
	}
	return nil
}

// checkHTTPRun counts one /v1/run answer: a transport or HTTP failure, a
// run that reports an error, or a result that differs from the reference
// is a failure.
func checkHTTPRun(env *runEnv, t *tally, ledger *pacLedger, op, prog string, mech sti.Mechanism, out *runResp, err error) bool {
	if err != nil {
		t.fail(failureCause(op, err), err)
		return false
	}
	if out.Error != "" {
		t.fail(op+".run_error", errors.New(out.Error))
		return false
	}
	o := outcome{exit: out.Exit, output: out.Output, cycles: out.Cycles, instrs: out.Instrs}
	if err := env.ref.check(prog, mech, o); err != nil {
		t.fail(op+".mismatch", err)
		return false
	}
	ledger.add(env.ref, prog, mech.String())
	t.ok()
	return true
}

// checkRun counts one in-process run, checked in full against the
// reference, PAC-op counts included.
func checkRun(env *runEnv, t *tally, op, prog string, mech sti.Mechanism, res *core.RunResult, err error) bool {
	if err == nil && res.Err != nil {
		err = res.Err
	}
	if err != nil {
		t.fail(op+".run_error", err)
		return false
	}
	if err := env.ref.check(prog, mech, resultOutcome(res)); err != nil {
		t.fail(op+".mismatch", err)
		return false
	}
	t.ok()
	return true
}

// writeReference regenerates reference.json by running every pinned
// program single-threaded through core.Run with the optimizer off. It is
// run by hand when the program pools change, never by a measuring run.
func writeReference(path string) error {
	ref := reference{}
	for _, p := range referenceSet() {
		c, err := core.Compile(p.source)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		ref[p.name] = map[string]refEntry{}
		for _, m := range p.mechs {
			res, err := c.Run(m, core.RunConfig{Optimize: core.OptimizeOff, Tier: core.TierOff})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.name, m, err)
			}
			if res.Err != nil {
				return fmt.Errorf("%s/%s: run failed: %w", p.name, m, res.Err)
			}
			ref[p.name][m.String()] = refEntry{
				Exit: res.Exit, OutputSHA256: outputDigest(res.Output),
				Cycles: res.Stats.Cycles, Instrs: res.Stats.Instrs,
				PacSigns: res.Stats.PacSigns, PacAuths: res.Stats.PacAuths, PacStrips: res.Stats.PacStrips,
			}
		}
	}
	if err := checkGolden(ref); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Note     string    `json:"note"`
		Programs reference `json:"programs"`
	}{"Generated by `go run . -write-reference reference.json` in perfbench/; never rewritten by a measuring run.", ref}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
