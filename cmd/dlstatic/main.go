// Command dlstatic runs the static lock-order deadlock detector on a
// CLF program, and optionally contrasts its report with the dynamic
// two-phase pipeline — the comparison that motivates the paper: static
// analysis over-reports (no thread identity, no happens-before, no path
// feasibility), iGoodlock narrows, DeadlockFuzzer confirms.
//
//	dlstatic prog.clf
//	dlstatic -compare prog.clf     # also run iGoodlock + the checker
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dlfuzz"
	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/static"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the report format
// can be golden-tested. Exit codes: 0 done, 2 error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlstatic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		compare  = fs.Bool("compare", false, "also run the dynamic two-phase pipeline and contrast")
		runs     = fs.Int("runs", 50, "Phase II executions per cycle in -compare mode")
		showEdge = fs.Bool("edges", false, "print the full lock-order graph")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	if len(fs.Args()) != 1 {
		fmt.Fprintln(stderr, "usage: dlstatic [flags] program.clf")
		return 2
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(stderr, "dlstatic:", err)
		return 2
	}
	prog, err := lang.Parse(file, string(src))
	if err != nil {
		fmt.Fprintln(stderr, "dlstatic:", err)
		return 2
	}

	res := static.Analyze(prog)
	fmt.Fprintf(stdout, "== static lock-order analysis: %s ==\n", file)
	fmt.Fprintf(stdout, "lock-order edges: %d\n", len(res.Edges))
	if *showEdge {
		for _, e := range res.Edges {
			fmt.Fprintf(stdout, "  %s\n", e)
		}
	}
	fmt.Fprintf(stdout, "potential static deadlock cycles: %d\n", len(res.Cycles))
	for i, c := range res.Cycles {
		fmt.Fprintf(stdout, "  %d: %s\n", i+1, c)
	}

	if !*compare {
		return 0
	}

	fmt.Fprintf(stdout, "\n== dynamic pipeline for comparison ==\n")
	p, err := dlfuzz.ParseCLF(file, string(src))
	if err != nil {
		fmt.Fprintln(stderr, "dlstatic:", err)
		return 2
	}
	body := p.Body()
	find, err := dlfuzz.Find(body, dlfuzz.DefaultFindOptions())
	if err != nil {
		fmt.Fprintln(stderr, "dlstatic:", err)
		return 2
	}
	fmt.Fprintf(stdout, "iGoodlock potential cycles: %d (+%d provably false by happens-before)\n",
		len(find.Cycles), len(find.FalsePositives))
	confirmed := 0
	opts := dlfuzz.DefaultConfirmOptions()
	opts.Runs = *runs
	for _, cyc := range find.Cycles {
		if dlfuzz.Confirm(body, cyc, opts).Confirmed() {
			confirmed++
		}
	}
	fmt.Fprintf(stdout, "confirmed real by DeadlockFuzzer: %d\n", confirmed)
	fmt.Fprintf(stdout, "\nsummary: static reports %d site-level cycles; iGoodlock reports %d object-level cycles (%d provably false); %d confirmed as real deadlocks\n",
		len(res.Cycles), len(find.Cycles)+len(find.FalsePositives), len(find.FalsePositives), confirmed)
	fmt.Fprintln(stdout, "(site-level and object-level counts are not directly comparable: one factory site can stand for many objects, and vice versa every confirmed cycle maps to some static cycle)")
	return 0
}
