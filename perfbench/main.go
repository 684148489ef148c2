// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload per invocation and prints, as its last line, a JSON object
// with the run's correctness verdict, operation counts and metrics:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	serve-hot     POST /v1/run by program handle over loopback: an open
//	              loop at a fixed Poisson rate, then a closed loop that
//	              measures capacity.
//	compile-cold  closed-loop sessions of /v1/compile on a fresh source
//	              plus its first /v1/run; a quarter repeat an earlier source.
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones (see ladder.go and README.md).
//
// Every result is checked against reference.json, which is committed with
// the benchmark and never recomputed by a measuring run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	// The shipped configuration leaves both toggles unset; clear them
	// before anything in the pipeline reads (and caches) them.
	os.Unsetenv("RSTI_OPT")
	os.Unsetenv("RSTI_TIER")

	workloadName := flag.String("workload", "", "serve-hot or compile-cold")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	optProbe := flag.String("opt-probe", "", "internal: child mode of the optimizer build probe, from this Figure 9 corpus index on")
	writeRef := flag.String("write-reference", "", "regenerate the reference file at this path and exit")
	flag.Parse()

	if *optProbe != "" {
		os.Exit(optProbeChild(*optProbe))
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	run, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}

	env := runEnv{seed: *seed, seconds: float64(*seconds), traced: *trace == 1, ref: ref, workers: runtime.NumCPU()}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "unset (100)"
	}
	fmt.Printf("env go=%s nproc=%d GOMAXPROCS=%d GOGC=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, *workloadName, *seed, *seconds, *trace)

	res, err := run(&env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print()
}

// workloads maps --workload names to the functions that run them.
var workloads = map[string]func(*runEnv) (*result, error){
	"serve-hot":    serveHot,
	"compile-cold": compileCold,
}

// runEnv is what every workload function receives.
type runEnv struct {
	seed    uint64
	seconds float64
	traced  bool
	ref     reference
	workers int // engine workers and client connections: nproc
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome.
type result struct {
	tally
	// invalid, when non-empty, says why the figures cannot stand as a
	// measurement (the open-loop generator fell behind its schedule).
	invalid string
	metrics map[string]metric
	// report holds the human-readable lines printed before the JSON.
	report []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) print() {
	for _, line := range r.report {
		fmt.Println(line)
	}
	attempted, failed, causes := r.snapshot()
	rate := 0.0
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	fmt.Printf("error_rate %.6f (failed %d of %d)\n", rate, failed, attempted)
	var keys []string
	for k := range causes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  failure cause %s: %s\n", k, causes[k])
	}
	if r.invalid != "" {
		fmt.Println("INVALID:", r.invalid)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-36s %.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && r.invalid == "", attempted, failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
