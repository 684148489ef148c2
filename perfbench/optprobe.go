package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"rsti/internal/core"
	"rsti/internal/sti"
)

// optBound is how long one Figure 9 program's optimizer-on builds may
// take. They finish in milliseconds when they finish at all; the bound
// only has to separate that from never.
const optBound = time.Second

// optBuildFailures counts the Figure 9 programs whose optimizer-on builds
// (core.Compilation.BuildMode(mech, true) for every RSTI mechanism) do not
// finish within optBound. A build that never finishes cannot be cancelled
// in process — RunContext builds before it applies its timeout — so the
// builds run in a child process that is killed at the deadline and
// restarted after the stuck program. Call it only after the timed phases.
func optBuildFailures() ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	corpus := fig9Corpus()
	var failed []string
	for next := 0; next < len(corpus); {
		cmd := exec.Command(exe, "-opt-probe", strconv.Itoa(next))
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		lines := make(chan string)
		go func() {
			defer close(lines)
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				lines <- sc.Text()
			}
		}()
		stuck := false
		for next < len(corpus) && !stuck {
			select {
			case line, ok := <-lines:
				if !ok || line != "ok "+strconv.Itoa(next) {
					cmd.Process.Kill()
					cmd.Wait()
					return nil, fmt.Errorf("optimizer probe child: unexpected %q at %s", line, corpus[next].name)
				}
				next++
			case <-time.After(optBound):
				failed = append(failed, corpus[next].name)
				next++
				stuck = true
			}
		}
		cmd.Process.Kill()
		for range lines {
		}
		cmd.Wait()
	}
	return failed, nil
}

// optProbeChild is the probe's child mode: from corpus index start on, it
// builds every program optimizer-on under each RSTI mechanism and prints
// "ok <index>" after each.
func optProbeChild(start string) int {
	from, err := strconv.Atoi(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: -opt-probe:", err)
		return 2
	}
	corpus := fig9Corpus()
	for i := from; i < len(corpus); i++ {
		c, err := core.Compile(corpus[i].source)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", corpus[i].name, err)
			return 1
		}
		for _, m := range sti.RSTIMechanisms {
			if _, err := c.BuildMode(m, true); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", corpus[i].name, m, err)
				return 1
			}
		}
		fmt.Printf("ok %d\n", i)
	}
	return 0
}

// reportOptProbe measures opt_build_failures and records it with its
// reproducer.
func reportOptProbe(res *result, traced bool) error {
	failed, err := optBuildFailures()
	if err != nil {
		return err
	}
	res.note("opt_build_failures %d count (optimizer-on builds not done within %s: %v; reproduce: core.Compile(src).BuildMode(sti.STL, true))",
		len(failed), optBound, failed)
	if traced {
		res.set("opt.build_failures", float64(len(failed)), "count")
	}
	return nil
}
