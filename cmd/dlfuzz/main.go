// Command dlfuzz runs the full DeadlockFuzzer pipeline — iGoodlock
// (Phase I) followed by the active random checker (Phase II) — on a CLF
// program or a named built-in workload.
//
// Usage:
//
//	dlfuzz [flags] program.clf
//	dlfuzz [flags] -workload jigsaw
//	dlfuzz -runs 0 [flags] program.clf | -workload jigsaw
//	dlfuzz -blocking [flags] program.clf | -workload chan-cycle-unbuf
//	dlfuzz -list
//	dlfuzz run [-seed N] [-max-steps N] [-record F] [-trace F] program.clf
//	dlfuzz replay [-q] witness.jsonl... | witness-dir
//
// -blocking switches from the two-phase mutex pipeline to a blocking-
// deadlock campaign: seeded runs under a completion-delaying bias
// (-blocking-bias), with stuck runs classified as partial or total
// deadlocks (see docs/PARTIAL_DEADLOCKS.md).
//
// Flags select the variant (abstraction, context, yields) and the total
// Phase II execution budget. Phase II is one multi-cycle campaign: the
// budget is shared across all candidate cycles, and every confirmed
// deadlock is credited to every cycle it matches. A budget of -runs 0
// runs Phase I only: the report stops before the Phase II section.
//
// The run subcommand executes a CLF program once at one seed and shows
// its print() output and outcome; -record writes the schedule as a
// witness and -trace the event stream.
//
// Observability (see docs/OBSERVABILITY.md): -witness-dir writes one
// replayable witness trace per confirmed cycle, -journal streams one
// JSONL record per Phase II execution, and the replay subcommand
// re-executes recorded witnesses, from -witness-dir or from `dlfuzz run
// -record`, and asserts each recorded run reproduces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dlfuzz"
	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the CLI's output is
// testable end to end. The exit code follows test-runner convention:
// 0 clean, 1 deadlocks found, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runOnce(args[1:], stdout, stderr)
		case "replay":
			return runReplay(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("dlfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run a named built-in workload instead of a CLF file")
		list      = fs.Bool("list", false, "list built-in workloads and exit")
		runs      = fs.Int("runs", 100, "total Phase II executions, shared across all cycles (0 = Phase I only)")
		k         = fs.Int("k", 10, "abstraction depth")
		abs       = fs.String("abs", "exec-index", "object abstraction: exec-index, k-object, or trivial")
		noCtx     = fs.Bool("no-context", false, "ignore acquire contexts when pausing (variant 4)")
		noYield   = fs.Bool("no-yields", false, "disable the yield optimization (variant 5)")
		maxLen    = fs.Int("max-cycle-len", 0, "bound cycle length in Phase I (0 = unbounded)")
		finder    = fs.String("finder", "", "Phase I candidate finder: "+strings.Join(dlfuzz.FinderNames(), ", ")+" (default igoodlock)")
		seed      = fs.Int64("seed", 1, "first seed for the Phase I observation run")
		p1runs    = fs.Int("p1-runs", 1, "Phase I observation runs; relations are merged and closed once")
		p1par     = fs.Int("p1-parallel", 0, "Phase I campaign and closure workers (0 = all cores, 1 = serial); results are identical")
		parallel  = fs.Int("parallel", 0, "Phase II campaign workers (0 = all cores, 1 = serial); results are identical")
		stopAfter = fs.Int("stop-after", 0, "stop the campaign after N targeted reproductions (0 = run all seeds)")
		witDir    = fs.String("witness-dir", "", "write one replayable witness trace per confirmed cycle into this directory")
		journalTo = fs.String("journal", "", "stream a JSONL run journal for the Phase II campaign to this file")
		blocking  = fs.Bool("blocking", false, "run a blocking-deadlock campaign (channels, WaitGroups, waits) instead of the two-phase mutex pipeline")
		bias      = fs.Float64("blocking-bias", 0.7, "with -blocking: per-decision probability of delaying completing operations (0 = uniform scheduler)")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", w.Name, w.Desc)
		}
		fmt.Fprintln(stdout, "-- blocking suite (use with -blocking) --")
		for _, w := range workloads.Blocking() {
			fmt.Fprintf(stdout, "%-18s %s\n", w.Name, w.Desc)
		}
		return 0
	}
	if *runs == 0 && (*blocking || *journalTo != "" || *witDir != "") {
		fmt.Fprintln(stderr, "dlfuzz: -runs 0 runs Phase I only; it cannot be combined with -blocking, -journal or -witness-dir")
		return 2
	}

	prog, name, err := resolveProgram(*workload, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz:", err)
		return 2
	}

	if *blocking {
		return runBlockingCampaign(stdout, prog, name, dlfuzz.BlockingOptions{
			Runs: *runs, Bias: *bias, Parallelism: *parallel, StopAfter: *stopAfter,
		})
	}
	// Canonical program reference, as recorded in witness and journal
	// headers and resolved back by `dlfuzz replay`.
	programRef := "clf:" + name
	if *workload != "" {
		programRef = "workload:" + name
	}

	abstraction, err := parseAbstraction(*abs)
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz:", err)
		return 2
	}

	opts := dlfuzz.CheckOptions{
		Find: dlfuzz.FindOptions{
			Abstraction: abstraction, K: *k, MaxCycleLen: *maxLen, Seed: *seed,
			Runs: *p1runs, Parallelism: *p1par, Finder: *finder,
		},
		Confirm: dlfuzz.ConfirmOptions{
			Abstraction: abstraction, K: *k,
			UseContext: !*noCtx, YieldOpt: !*noYield, Runs: *runs,
			Parallelism: *parallel, StopAfter: *stopAfter,
		},
	}

	phase1 := "iGoodlock"
	if *finder != "" {
		phase1 = "finder " + *finder
	}
	fmt.Fprintf(stdout, "== %s: Phase I (%s) ==\n", name, phase1)
	find, err := dlfuzz.Find(prog, opts.Find)
	printObserved(stdout, find)
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz:", err)
		if find != nil && len(find.ObservedDeadlocks) > 0 {
			return 1 // prediction failed, but deadlocks were witnessed
		}
		return 2
	}
	fmt.Fprintf(stdout, "dependency relation: %d entries (observation seed %d)\n", find.Deps, find.Seed)
	// Campaign stats only exist past a single run; printing them
	// unconditionally would change the single-run output contract.
	if find.ObservationRuns > 1 {
		fmt.Fprintf(stdout, "observation campaign: %d of %d runs completed, %d raw deps merged to %d\n",
			find.CompletedRuns, find.ObservationRuns, find.RawDeps, find.Deps)
		fmt.Fprintf(stdout, "new cycles by run: %v\n", find.NewCyclesByRun)
	}
	fmt.Fprintf(stdout, "potential deadlock cycles: %d (+%d provably false by happens-before)\n",
		len(find.Cycles), len(find.FalsePositives))
	for i, cyc := range find.Cycles {
		fmt.Fprintf(stdout, "  cycle %d: %s\n", i+1, cyc)
	}
	for i, cyc := range find.FalsePositives {
		fmt.Fprintf(stdout, "  false positive %d: %s\n", i+1, cyc)
	}
	if len(find.Cycles) == 0 {
		fmt.Fprintln(stdout, "no plausible cycles; nothing to confirm")
	}
	if len(find.Cycles) == 0 || *runs == 0 {
		if len(find.ObservedDeadlocks) > 0 {
			return 1
		}
		return 0
	}
	// The Phase II budget follows the finder's ranking (for the default
	// finder this is exactly report order, so the output is unchanged).
	opts.Confirm.Ranks = find.Ranks()

	var journal *obs.Journal
	if *journalTo != "" {
		f, err := os.Create(*journalTo)
		if err != nil {
			fmt.Fprintln(stderr, "dlfuzz:", err)
			return 2
		}
		defer f.Close()
		journal = obs.NewJournal(f, obs.JournalMeta{
			Program: programRef, Cycles: len(find.Cycles),
			Runs: *runs, Parallelism: *parallel,
		})
		opts.Confirm.OnRun = journal.Record
	}

	fmt.Fprintf(stdout, "\n== %s: Phase II (active random checker, %d runs across %d cycles) ==\n",
		name, *runs, len(find.Cycles))
	multi := dlfuzz.ConfirmAll(prog, find.Cycles, opts.Confirm)
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintln(stderr, "dlfuzz: journal:", err)
			return 2
		}
		fmt.Fprintf(stdout, "journal: wrote %s (%d runs)\n", *journalTo, multi.Executions)
	}
	fmt.Fprintf(stdout, "campaign: %d executions, %d deadlocked, %d unmatched\n",
		multi.Executions, multi.Deadlocked, multi.Unmatched)
	confirmed := 0
	for i, rep := range multi.Reports {
		status := "NOT CONFIRMED"
		if rep.Confirmed() {
			status = "REAL DEADLOCK"
			confirmed++
		}
		fmt.Fprintf(stdout, "cycle %d: %s  prob=%.2f  deadlocked=%d/%d  avg-thrash=%.2f",
			i+1, status, rep.Probability(), rep.Deadlocked, rep.Runs, rep.AvgThrashes())
		if rep.CrossMatches > 0 {
			fmt.Fprintf(stdout, "  cross-credit=%d", rep.CrossMatches)
		}
		fmt.Fprintln(stdout)
		if w := rep.Witness(); w != nil {
			fmt.Fprintf(stdout, "  witness: %s\n", w)
		}
	}
	if *witDir != "" && confirmed > 0 {
		if err := writeWitnesses(*witDir, programRef, prog, find.Cycles, multi.Reports, opts.Confirm, stdout); err != nil {
			fmt.Fprintln(stderr, "dlfuzz:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "\n%d of %d potential cycles confirmed as real deadlocks\n", confirmed, len(find.Cycles))
	if confirmed > 0 || len(find.ObservedDeadlocks) > 0 {
		return 1 // like a test runner: deadlocks found => non-zero exit
	}
	return 0
}

// runBlockingCampaign is the -blocking mode: seeds 0..runs-1 under the
// (optionally biased) random scheduler, stuck runs classified as
// partial or total deadlocks and aggregated by canonical verdict key.
// The report is deterministic for a fixed run count at any -parallel
// setting. Exit 1 when any run blocked or deadlocked.
func runBlockingCampaign(stdout io.Writer, prog func(*dlfuzz.Ctx), name string, opts dlfuzz.BlockingOptions) int {
	fmt.Fprintf(stdout, "== %s: blocking campaign (%d runs, bias %.2f) ==\n", name, opts.Runs, opts.Bias)
	rep := dlfuzz.FindBlocking(prog, opts)
	fmt.Fprintf(stdout, "runs: %d  completed=%d lock-deadlock=%d step-limit=%d blocked=%d (partial=%d, total=%d)\n",
		rep.Runs, rep.CompletedRuns, rep.DeadlockRuns, rep.StepLimitRuns,
		rep.BlockedRuns, rep.PartialRuns, rep.TotalRuns)
	fmt.Fprintf(stdout, "distinct stuck states: %d\n", len(rep.Verdicts))
	for i, v := range rep.Verdicts {
		kind := "total"
		if v.Partial {
			kind = "partial"
		}
		fmt.Fprintf(stdout, "verdict %d: %s deadlock  runs=%d  first-seed=%d\n", i+1, kind, v.Runs, v.FirstSeed)
		for _, bt := range v.Example.Threads {
			fmt.Fprintf(stdout, "  stuck: %s\n", bt)
		}
	}
	if rep.BlockedRuns > 0 || rep.DeadlockRuns > 0 {
		return 1
	}
	return 0
}

// printObserved reports deadlocks hit during Phase I observation
// attempts: real findings in their own right, even though the runs that
// produced them contribute no prediction.
func printObserved(w io.Writer, find *dlfuzz.FindReport) {
	if find == nil || len(find.ObservedDeadlocks) == 0 {
		return
	}
	fmt.Fprintf(w, "observation deadlocked in %d of %d attempts before completing:\n",
		len(find.ObservedDeadlocks), find.Attempts)
	for _, dl := range find.ObservedDeadlocks {
		fmt.Fprintf(w, "  observed deadlock: %s\n", dl)
	}
}

// resolveProgram loads either a named workload or a CLF file. CLF
// print() output is discarded: the pipeline runs a program many times,
// and only the report belongs on stdout (`dlfuzz run` shows program
// output).
func resolveProgram(workload string, args []string) (func(*dlfuzz.Ctx), string, error) {
	if workload != "" {
		wl, ok := workloads.ByName(workload)
		if !ok {
			return nil, "", fmt.Errorf("unknown workload %q (try -list)", workload)
		}
		return wl.Prog, wl.Name, nil
	}
	if len(args) != 1 {
		return nil, "", fmt.Errorf("usage: dlfuzz [flags] program.clf | dlfuzz -workload name")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, "", err
	}
	p, err := dlfuzz.ParseCLF(args[0], string(src))
	if err != nil {
		return nil, "", err
	}
	return p.Body(), args[0], nil
}

func parseAbstraction(s string) (dlfuzz.Abstraction, error) {
	switch s {
	case "exec-index":
		return dlfuzz.ExecIndexAbstraction, nil
	case "k-object":
		return dlfuzz.KObjectAbstraction, nil
	case "trivial":
		return dlfuzz.TrivialAbstraction, nil
	default:
		return 0, fmt.Errorf("unknown abstraction %q", s)
	}
}
