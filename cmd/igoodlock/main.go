// Command igoodlock runs only Phase I: it observes one execution of a
// CLF program (or a built-in workload) and prints the potential deadlock
// cycles with full debugging context — thread and lock abstractions plus
// the acquire-site stacks — in the paper's report format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dlfuzz"
	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the report format can
// be golden-tested. Exit codes: 0 clean, 1 observation failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("igoodlock", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "analyze a named built-in workload instead of a CLF file")
		k        = fs.Int("k", 10, "abstraction depth")
		maxLen   = fs.Int("max-cycle-len", 0, "bound cycle length (0 = unbounded; the paper suggests 2 on a budget)")
		finder   = fs.String("finder", "", "candidate finder: "+strings.Join(dlfuzz.FinderNames(), ", ")+" (default igoodlock)")
		seed     = fs.Int64("seed", 1, "first observation seed")
		runs     = fs.Int("runs", 1, "observation runs; relations are merged and closed once")
		parallel = fs.Int("parallel", 0, "campaign and closure workers (0 = all cores, 1 = serial); results are identical")
		showDeps = fs.Bool("deps", false, "also print the lock dependency relation size")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}

	var prog func(*dlfuzz.Ctx)
	var name string
	switch {
	case *workload != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "igoodlock: unknown workload %q\n", *workload)
			return 2
		}
		prog, name = w.Prog, w.Name
	case len(fs.Args()) == 1:
		file := fs.Arg(0)
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(stderr, "igoodlock:", err)
			return 2
		}
		p, err := dlfuzz.ParseCLF(file, string(src))
		if err != nil {
			fmt.Fprintln(stderr, "igoodlock:", err)
			return 2
		}
		prog, name = p.Body(), file
	default:
		fmt.Fprintln(stderr, "usage: igoodlock [flags] program.clf | igoodlock -workload name")
		return 2
	}

	opts := dlfuzz.DefaultFindOptions()
	opts.K = *k
	opts.MaxCycleLen = *maxLen
	opts.Seed = *seed
	opts.Runs = *runs
	opts.Parallelism = *parallel
	opts.Finder = *finder
	rep, err := dlfuzz.Find(prog, opts)
	if rep == nil {
		fmt.Fprintln(stderr, "igoodlock:", err)
		return 2
	}
	// Deadlocks hit while trying to observe a completed run are real
	// findings — print them whether or not prediction succeeded.
	if len(rep.ObservedDeadlocks) > 0 {
		fmt.Fprintf(stdout, "%s: observation deadlocked in %d of %d attempts before completing:\n",
			name, len(rep.ObservedDeadlocks), rep.Attempts)
		for _, dl := range rep.ObservedDeadlocks {
			fmt.Fprintf(stdout, "  observed deadlock: %s\n", dl)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "igoodlock:", err)
		return 1
	}
	if *showDeps {
		fmt.Fprintf(stdout, "%s: lock dependency relation has %d entries\n", name, rep.Deps)
	}
	if rep.ObservationRuns > 1 {
		fmt.Fprintf(stdout, "%s: %d of %d observation runs completed, %d raw deps merged to %d, new cycles by run %v\n",
			name, rep.CompletedRuns, rep.ObservationRuns, rep.RawDeps, rep.Deps, rep.NewCyclesByRun)
	}
	fmt.Fprintf(stdout, "%s: %d potential deadlock cycles, %d provably false\n",
		name, len(rep.Cycles), len(rep.FalsePositives))
	for i, c := range rep.Cycles {
		fmt.Fprintf(stdout, "  %d: %s\n", i+1, c)
	}
	for i, c := range rep.FalsePositives {
		fmt.Fprintf(stdout, "  FP %d: %s\n", i+1, c)
	}
	return 0
}
