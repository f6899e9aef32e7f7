// Command dlbench regenerates the paper's evaluation: Table 1 and all
// four graphs of Figure 2, printed as text tables. EXPERIMENTS.md in the
// repository root records a reference run next to the paper's numbers.
// Performance is measured by the repository benchmark under bench/, not
// here.
//
//	dlbench                  # everything (paper-scale: 100 runs/cycle)
//	dlbench -table 1         # just Table 1
//	dlbench -fig 2a          # one Figure 2 graph
//	dlbench -imprecision     # the Section 5.4 Jigsaw imprecision study
//	dlbench -runs 20         # smaller campaigns
//	dlbench -parallel 1      # serial campaigns (same numbers, slower)
//	dlbench -stop-after 5    # stop a cycle's campaign at 5 reproductions
//	dlbench -bakeoff-json BENCH_bakeoff.json  # Phase I finder bakeoff
//	dlbench -bakeoff-json BENCH_bakeoff.json -bakeoff-entries 5 -check-sound
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/report"
	"dlfuzz/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with its I/O injected. Exit status: 0
// success, 1 a failed run or gate (an I/O error, a sound finder with
// unconfirmed candidates), 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table       = fs.String("table", "", "regenerate one table (\"1\")")
		fig         = fs.String("fig", "", "regenerate one figure graph (\"2a\", \"2b\", \"2c\", \"2d\")")
		imprecision = fs.Bool("imprecision", false, "run the Section 5.4 imprecision study on Jigsaw")
		bakeoffJSON = fs.String("bakeoff-json", "", "write a Phase I finder bakeoff over the committed corpus to this file and exit")
		bakeoffDir  = fs.String("bakeoff-corpus", "testdata/corpus", "corpus directory for -bakeoff-json")
		bakeoffN    = fs.Int("bakeoff-entries", 0, "cap corpus entries for -bakeoff-json (0 = all)")
		checkSound  = fs.Bool("check-sound", false, "with -bakeoff-json: fail if a sound finder has Phase-II-unconfirmed candidates")
		runs        = fs.Int("runs", 100, "Phase II execution budget per workload (shared across its cycles)")
		maxCycles   = fs.Int("max-cycles", 0, "cap cycles per benchmark (0 = all)")
		parallel    = fs.Int("parallel", 0, "campaign workers (0 = all cores, 1 = serial); results are identical")
		stopAfter   = fs.Int("stop-after", 0, "stop each campaign after N targeted reproductions (0 = run all seeds)")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	if *checkSound && *bakeoffJSON == "" {
		fmt.Fprintln(stderr, "dlbench: -check-sound requires -bakeoff-json")
		return 2
	}

	var err error
	if *bakeoffJSON != "" {
		err = bakeoffBench(stdout, *bakeoffJSON, *bakeoffDir, *bakeoffN, *runs, *parallel, *checkSound)
	} else {
		err = regenerate(stdout, *table, *fig, *imprecision, *runs, *maxCycles, *parallel, *stopAfter)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 1
	}
	return 0
}

// bakeoffBench writes BENCH_bakeoff.json: every registered Phase I
// finder over the committed corpus, each finder's candidates confirmed
// by the same Phase II budget, so precision (false-positive rate) and
// closure cost are tracked side by side across revisions. With
// checkSound it doubles as the CI gate: a finder that declares itself
// sound must have zero Phase-II-unconfirmed candidates.
func bakeoffBench(w io.Writer, path, dir string, maxEntries, confirmRuns, parallel int, checkSound bool) error {
	// The default -runs (100, the Phase II paper budget) is excessive per
	// bakeoff candidate; unless overridden, let RunBakeoff pick its
	// default of 5 confirmations per candidate.
	if confirmRuns == 100 {
		confirmRuns = 0
	}
	b, err := harness.RunBakeoff(dir, harness.BakeoffOptions{
		ConfirmRuns: confirmRuns,
		MaxEntries:  maxEntries,
		Parallelism: parallel,
		Log:         func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	for _, f := range b.Finders {
		fmt.Fprintf(w, "finder %-10s sound=%-5v candidates=%-4d confirmed=%-4d unconfirmed=%-3d fp-rate=%.2f closure=%.1fms\n",
			f.Finder, f.Sound, f.Candidates, f.Confirmed, f.Unconfirmed, f.FalsePositiveRate, f.ClosureMs)
	}
	if err := b.WriteJSON(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d corpus entries, %d confirm runs per candidate)\n", path, b.Entries, b.ConfirmRuns)
	if checkSound {
		for _, f := range b.Finders {
			if f.Sound && f.Unconfirmed > 0 {
				return fmt.Errorf("sound finder %q has %d unconfirmed candidates", f.Finder, f.Unconfirmed)
			}
		}
		fmt.Fprintln(w, "check-sound: every sound finder confirmed all of its candidates")
	}
	return nil
}

// regenerate writes the paper's tables and figures to w.
func regenerate(w io.Writer, table, fig string, imprecision bool, runs, maxCycles, parallel, stopAfter int) error {
	copts := campaign.Options{Parallelism: parallel, StopAfter: stopAfter}
	all := table == "" && fig == "" && !imprecision
	if table == "1" || all {
		if err := table1(w, runs, maxCycles, parallel, stopAfter); err != nil {
			return err
		}
	}
	wantFig := func(name string) bool { return all || fig == name }
	if wantFig("2a") || wantFig("2b") || wantFig("2c") {
		points, err := harness.BuildFigure2(runs, maxCycles, 0, copts)
		if err != nil {
			return err
		}
		report.WriteFigure2(w, points)
	}
	if wantFig("2d") {
		points, err := harness.BuildCorrelation(runs, maxCycles, 0, copts)
		if err != nil {
			return err
		}
		report.WriteCorrelation(w, points)
	}
	if imprecision || all {
		if err := imprecisionStudy(w, runs, copts); err != nil {
			return err
		}
	}
	return nil
}

func table1(w io.Writer, runs, maxCycles, parallel, stopAfter int) error {
	fmt.Fprintln(w, "Table 1: two-phase results per benchmark")
	opt := harness.Table1Options{
		Runs: runs, BaselineRuns: runs, MaxCycles: maxCycles,
		Parallelism: parallel, StopAfter: stopAfter,
	}
	var rows []harness.Table1Row
	for _, wl := range workloads.All() {
		row, err := harness.BuildTable1Row(wl, opt)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	report.WriteTable1(w, rows)
	fmt.Fprintln(w)
	return nil
}

// imprecisionStudy reproduces Section 5.4: how many of Jigsaw's
// potential cycles are provably false (happens-before ordered) and how
// many the checker confirms.
func imprecisionStudy(w io.Writer, runs int, copts campaign.Options) error {
	wl, _ := workloads.ByName("jigsaw")
	v := harness.DefaultVariant()
	p1, err := analysis.ObserveMany(wl.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		return err
	}
	// One multi-cycle campaign covers all of Jigsaw's candidates with a
	// runs-per-cycle budget equivalent to the old per-cycle loop.
	multi := campaign.ConfirmCycles(wl.Prog, p1.Cycles, v.Fuzzer, runs*len(p1.Cycles), 0, copts)
	confirmed := len(multi.Confirmed())
	total := len(p1.Cycles) + len(p1.FalsePositives)
	fmt.Fprintln(w, "Section 5.4: iGoodlock imprecision on Jigsaw")
	fmt.Fprintf(w, "  potential cycles reported:        %d\n", total)
	fmt.Fprintf(w, "  confirmed real by DeadlockFuzzer: %d\n", confirmed)
	fmt.Fprintf(w, "  provably false (happens-before):  %d\n", len(p1.FalsePositives))
	fmt.Fprintf(w, "  undetermined:                     %d\n", total-confirmed-len(p1.FalsePositives))
	fmt.Fprintln(w, "  (paper: 283 reported, 29 confirmed, 18 provably false, rest undetermined)")
	return nil
}
