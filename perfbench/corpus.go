package main

import (
	"fmt"

	"rsti/internal/sti"
	"rsti/internal/workload"
)

// program is one benchmark input: a name that keys reference.json and its
// C source.
type program struct {
	name   string
	source string
}

// The program pools are fixed: reference.json pins every one of them, so
// --seed chooses the traffic (which program, which mechanism, when) and
// never the program text. poolSeed only makes the pools reproducible.
const poolSeed = 0x5eed_b0a7_2024

var (
	serveMechs = []sti.Mechanism{sti.None, sti.PARTS, sti.STWC, sti.STC, sti.STL}
	coldMechs  = []sti.Mechanism{sti.STWC, sti.STC, sti.STL}
	fig9Mechs  = []sti.Mechanism{sti.None, sti.STWC, sti.STC, sti.STL}
)

// servePool is serve-hot's program set: 44 small programs of roughly 1k
// to 20k modelled instructions and 4 near 200k, all pre-compiled before
// the measured phases.
func servePool() []program {
	r := &splitmix{s: poolSeed}
	out := make([]program, 48)
	for i := range out {
		cfg := workload.Config{
			Structs: 2 + r.intn(5), PtrVars: 8 + r.intn(25), ColdFns: 2 + r.intn(3), CastRate: 25,
			Iters: 2 + r.intn(40), ChainLen: 4 + r.intn(9),
			DerefOps: 2 + r.intn(9), CallOps: r.intn(3), CastOps: r.intn(4), ArithOps: 2 + r.intn(9),
		}
		if i%12 == 11 {
			cfg = workload.Config{
				Structs: 8, PtrVars: 48, ColdFns: 6, CastRate: 25,
				Iters: 450 + r.intn(100), ChainLen: 24,
				DerefOps: 8 + r.intn(5), CallOps: 1 + r.intn(2), CastOps: 2 + r.intn(3), ArithOps: 4 + r.intn(5),
			}
		}
		cfg.Name = fmt.Sprintf("serve/%02d", i)
		cfg.Seed = poolSeed ^ uint64(i)
		out[i] = program{cfg.Name, workload.Generate(cfg).Source}
	}
	return out
}

// table3Names are the Table 3 (SPEC CPU2006 static) programs small enough
// to compile in tens of milliseconds; the largest rows take seconds and
// would turn compile-cold into a handful of samples.
var table3Names = map[string]bool{
	"bzip2": true, "mcf": true, "milc": true, "namd": true, "hmmer": true, "libquantum": true,
	"sjeng": true, "h264ref": true, "lbm": true, "astar": true, "sphinx3": true,
}

// coldPool is compile-cold's set of base sources: 32 small generated
// programs, then the Table 3-sized ones. A session compiles a base plus a
// unique comment, so every fresh session is a compile-cache miss while
// its modelled behaviour stays the base's.
func coldPool() (small, table3 []program) {
	r := &splitmix{s: poolSeed ^ 0xc01d}
	for i := 0; i < 32; i++ {
		cfg := workload.Config{
			Name:    fmt.Sprintf("cold/%02d", i),
			Structs: 2 + r.intn(7), PtrVars: 8 + r.intn(41), ColdFns: 2 + r.intn(5), CastRate: 20 + r.intn(20),
			Popular: r.intn(6), SharedCasts: r.intn(6), PPPlain: r.intn(8), PPSpecial: r.intn(2),
			Iters: 2 + r.intn(20), ChainLen: 4 + r.intn(9),
			DerefOps: 2 + r.intn(9), CallOps: r.intn(3), CastOps: r.intn(4), ArithOps: 2 + r.intn(9),
			Seed: poolSeed ^ 0xc01d ^ uint64(i),
		}
		small = append(small, program{cfg.Name, workload.Generate(cfg).Source})
	}
	for _, b := range workload.SPEC2006Static() {
		if table3Names[b.Name] {
			table3 = append(table3, program{"table3/" + b.Name, b.Source})
		}
	}
	return small, table3
}

// fig9Corpus is the Figure 9 corpus in the figure's suite order.
func fig9Corpus() []program {
	suites := workload.AllSuites()
	var out []program
	for _, s := range workload.SuiteOrder {
		for _, b := range suites[s] {
			out = append(out, program{s + "/" + b.Name, b.Source})
		}
	}
	return out
}

// pinned is one program and the mechanisms reference.json pins for it.
type pinned struct {
	program
	mechs []sti.Mechanism
}

// referenceSet lists every program reference.json pins. compile-cold
// programs also pin None: every mechanism's exit and output are compared
// with the None run's.
func referenceSet() []pinned {
	var out []pinned
	for _, p := range servePool() {
		out = append(out, pinned{p, serveMechs})
	}
	small, table3 := coldPool()
	for _, p := range append(small, table3...) {
		out = append(out, pinned{p, append([]sti.Mechanism{sti.None}, coldMechs...)})
	}
	for _, p := range fig9Corpus() {
		out = append(out, pinned{p, fig9Mechs})
	}
	return out
}
