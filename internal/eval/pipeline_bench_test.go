package eval

// Pipeline micro-benchmarks: compiler-side throughput of each stage on a
// Table 3-sized program (the "how long does the RSTI compiler itself
// take" question; the paper reports 20-30 minutes to build its LLVM).

import (
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/lower"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
	"rsti/internal/workload"
)

func pipelineSource(b *testing.B) string {
	b.Helper()
	return workload.SPEC2006Static()[1].Source // bzip2-sized
}

func BenchmarkPipelineFrontend(b *testing.B) {
	src := pipelineSource(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cminor.Frontend(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineLower(b *testing.B) {
	f, err := cminor.Frontend(pipelineSource(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lower.Lower(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAnalyze(b *testing.B) {
	f, err := cminor.Frontend(pipelineSource(b))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sti.Analyze(prog)
	}
}

func BenchmarkPipelineInstrument(b *testing.B) {
	f, err := cminor.Frontend(pipelineSource(b))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		b.Fatal(err)
	}
	an := sti.Analyze(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rsti.Instrument(prog, an, sti.STWC); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineInterpreter(b *testing.B) {
	// Interpreter throughput in modelled instructions per second.
	bench := workload.SPEC2017()[0]
	f, err := cminor.Frontend(bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m := vm.New(prog, vm.DefaultOptions())
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
