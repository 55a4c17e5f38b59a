// Command perfbench is the repository's benchmark: it drives fixed lists of
// SHADOW operating points through the simulator's public entry points,
// checks every output, and prints end-to-end metrics (or, with -trace 1,
// per-layer metrics from a separately traced run) as one JSON line.
//
//	go run . -workload fig11-ddr5 -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	o := options{scale: full, setupRuns: 11}
	var traceFlag int
	var setupOnly bool
	flag.StringVar(&o.workload, "workload", wlFig11, fmt.Sprintf("workload to run: %s", strings.Join(workloadNames, ", ")))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 32, "measurement budget in seconds (untraced runs)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory the traced run writes its spans to (empty: not written)")
	flag.StringVar(&o.root, "root", ".", "repository root, for the source fingerprint")
	flag.BoolVar(&setupOnly, "setup-only", false, "build every point once, print the host and normalized seconds taken, and exit")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", traceFlag))
	}
	o.trace = traceFlag == 1

	if setupOnly {
		w, err := newWorkload(o.workload, o.seed, o.scale)
		if err != nil {
			fail(err)
		}
		st := timeSetup(w, newRefKernel())
		fmt.Println(st.Raw, st.Norm)
		return
	}
	o.coldSetup = setupInChild(o)
	res, rep, err := bench(o)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		fail(err)
	}
	if err := enc.Encode(res); err != nil {
		fail(err)
	}
}

// setupInChild times the build of every point in a fresh copy of this
// program, so each sample pays the memoized Table II analytics again.
func setupInChild(o options) func(*workload) (setupTime, error) {
	return func(w *workload) (setupTime, error) {
		self, err := os.Executable()
		if err != nil {
			return setupTime{}, err
		}
		out, err := exec.Command(self, "-setup-only", "-workload", w.name, "-seed", strconv.FormatUint(w.seed, 10)).Output()
		if err != nil {
			return setupTime{}, err
		}
		var st setupTime
		if _, err := fmt.Sscan(string(out), &st.Raw, &st.Norm); err != nil {
			return setupTime{}, fmt.Errorf("set-up child printed %q: %w", out, err)
		}
		return st, nil
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
