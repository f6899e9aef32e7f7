// Command bench is the repository benchmark: closed-loop deadlock
// checks over four workloads, with end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [-root DIR] [-out FILE] [-spans FILE]
//	bench compare [-spec FILE] A/ B/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how many times a measured run sets up; setup_s is the
// median.
const setupRepeats = 7

func main() {
	start := time.Now()
	// Every check runs serially, so one P is all it can use. With more,
	// a cross-thread grant can wake another OS thread on another CPU: on
	// a two-CPU host that made paper-go checks about a fifth slower and
	// their timings more variable from run to run.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, start))
}

// run is main with injectable arguments and streams. It exits 0 when
// the run completed (its correctness is in the result line), 1 on an
// error and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer, start time.Time) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "Phase I seed of every check of the mutex workloads")
		seconds = fs.Float64("seconds", 15, "least length of the timed loop, in whole passes")
		trace   = fs.Int("trace", 0, "1 runs the traced passes and layer probes instead of the timed loop")
		root    = fs.String("root", ".", "repository root holding testdata/")
		out     = fs.String("out", "", "also write the run's record (result plus environment) to this file")
		spans   = fs.String("spans", "", "with -trace 1, write the traced passes' spans to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "bench: want --workload one of %v and --trace 0 or 1\n", workloadNames())
		return 2
	}
	opts := runOptions{root: *root, seed: *seed, seconds: *seconds, minBeyond: minTailSamples, setups: setupRepeats}
	var (
		res      *result
		slow     float64
		failures []string
		err      error
	)
	if *trace == 1 {
		var recorded []span
		res, recorded, failures, err = traceRun(w, opts)
		if err == nil && *spans != "" {
			err = writeJSON(*spans, recorded)
		}
	} else {
		res, slow, failures, err = measure(w, opts, start)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "bench: FAILED", f)
	}
	rec := record{Workload: w.name, Seed: *seed, Trace: *trace, Env: environment(), Slowdown: slow, Result: res}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	env, err := json.Marshal(rec.Env)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench %s seed %d trace %d: %s\n", w.name, *seed, *trace, env)
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}
