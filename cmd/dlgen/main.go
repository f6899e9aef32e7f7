// Command dlgen drives the seeded CLF program generator and the
// scenario corpus it feeds (see internal/lang/gen and internal/corpus).
//
// Usage:
//
//	dlgen generate -seed N [-preset small|medium|large|blocking] [-o file]
//	dlgen harvest  [-dir testdata/corpus] [-seeds 200] [-confirm-runs 5] ...
//	dlgen minimize [-keys k1,k2,...] program.clf
//	dlgen status   [-dir testdata/corpus] [-check]
//
// generate prints one deterministic program. harvest scans a seed range,
// keeps programs contributing new cycle shapes, minimizes them, confirms
// their cycles with Phase II, and writes programs + manifest into the
// corpus directory. minimize shrinks one program while its cycle keys
// survive. status summarizes a corpus; -check re-validates it end to end
// (parse, key survival, serial-vs-parallel differential) and is what CI
// runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/corpus"
	"dlfuzz/internal/lang/gen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams. Exit codes: 0 success,
// 1 validation/analysis failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "dlgen: expected a subcommand: generate, harvest, minimize, or status")
		return 2
	}
	switch args[0] {
	case "generate":
		return runGenerate(args[1:], stdout, stderr)
	case "harvest":
		return runHarvest(args[1:], stdout, stderr)
	case "minimize":
		return runMinimize(args[1:], stdout, stderr)
	case "status":
		return runStatus(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "dlgen: unknown subcommand %q\n", args[0])
		return 2
	}
}

// presetFlag resolves a -preset value.
func presetFlag(name string, stderr io.Writer) (gen.Config, bool) {
	cfg, ok := gen.ByPreset(name)
	if !ok {
		fmt.Fprintf(stderr, "dlgen: unknown preset %q (want small, medium, large, or blocking)\n", name)
	}
	return cfg, ok
}

func runGenerate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlgen generate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed   = fs.Int64("seed", 1, "generator seed")
		preset = fs.String("preset", "medium", "generator preset: small, medium, large, or blocking")
		out    = fs.String("o", "", "write the program to this file instead of stdout")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	cfg, ok := presetFlag(*preset, stderr)
	if !ok {
		return 2
	}
	src := gen.Generate(*seed, cfg)
	if *out == "" {
		fmt.Fprint(stdout, src)
		return 0
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		fmt.Fprintln(stderr, "dlgen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (seed %d, %s)\n", *out, *seed, cfg.Preset)
	return 0
}

func runHarvest(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlgen harvest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir         = fs.String("dir", "testdata/corpus", "corpus directory")
		seeds       = fs.Int("seeds", 200, "generator seeds to scan")
		start       = fs.Int64("start", 1, "first generator seed")
		preset      = fs.String("preset", "medium", "generator preset: small, medium, large, or blocking")
		runs        = fs.Int("p1-runs", 4, "Phase I observation runs per program")
		maxSteps    = fs.Int("max-steps", 200000, "step bound per execution")
		confirmRuns = fs.Int("confirm-runs", 5, "Phase II executions per kept cycle (0 = skip confirmation)")
		maxProgs    = fs.Int("max-programs", 24, "cap on kept programs (0 = no cap)")
		verbose     = fs.Bool("v", false, "log per-seed progress")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	cfg, ok := presetFlag(*preset, stderr)
	if !ok {
		return 2
	}
	opts := corpus.HarvestOptions{
		Dir:         *dir,
		Seeds:       *seeds,
		Start:       *start,
		Gen:         cfg,
		Find:        corpus.FindSpec{Runs: *runs, MaxSteps: *maxSteps},
		ConfirmRuns: *confirmRuns,
		MaxPrograms: *maxProgs,
	}
	if *verbose {
		opts.Log = func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	}
	m, err := corpus.Harvest(opts)
	if err != nil {
		fmt.Fprintln(stderr, "dlgen:", err)
		return 1
	}
	printStatus(stdout, *dir, m)
	return 0
}

func runMinimize(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlgen minimize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		keys     = fs.String("keys", "", "comma-separated canonical cycle keys to preserve (default: all observed)")
		runs     = fs.Int("p1-runs", 4, "Phase I observation runs per re-check")
		maxSteps = fs.Int("max-steps", 200000, "step bound per execution")
		budget   = fs.Int("budget", 400, "observation checks the minimizer may spend")
		out      = fs.String("o", "", "write the minimized program to this file instead of stdout")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "dlgen: minimize takes exactly one CLF file")
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "dlgen:", err)
		return 1
	}
	src := string(data)
	spec := corpus.FindSpec{Runs: *runs, MaxSteps: *maxSteps}
	var keep []string
	if *keys != "" {
		keep = strings.Split(*keys, ",")
	} else {
		co, err := corpus.Observe(src, spec)
		if err != nil {
			fmt.Fprintln(stderr, "dlgen:", err)
			return 1
		}
		for _, c := range co.Cycles {
			keep = append(keep, c.Key())
		}
	}
	if len(keep) == 0 {
		fmt.Fprintln(stderr, "dlgen: program has no cycles to preserve; nothing to minimize against")
		return 1
	}
	min, removed := corpus.Minimize(src, keep, spec, *budget)
	if *out == "" {
		fmt.Fprint(stdout, min)
	} else if err := os.WriteFile(*out, []byte(min), 0o644); err != nil {
		fmt.Fprintln(stderr, "dlgen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "dlgen: blanked %d lines, %d keys preserved\n", removed, len(keep))
	return 0
}

func runStatus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlgen status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir   = fs.String("dir", "testdata/corpus", "corpus directory")
		check = fs.Bool("check", false, "re-validate the corpus (parse, key survival, width differential)")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	var m *corpus.Manifest
	var err error
	if *check {
		m, err = corpus.Validate(*dir)
	} else {
		m, err = corpus.Load(*dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dlgen:", err)
		return 1
	}
	printStatus(stdout, *dir, m)
	if *check {
		fmt.Fprintln(stdout, "validation: ok")
	}
	return 0
}

func printStatus(w io.Writer, dir string, m *corpus.Manifest) {
	fmt.Fprintf(w, "corpus %s: %d programs, %d cycle keys (%d confirmed), %d shapes over %d seeds (preset %s)\n",
		dir, len(m.Entries), len(m.Keys()), m.ConfirmedCount(), m.DistinctShapeKeys, m.Seeds, m.Gen.Preset)
	for _, e := range m.Entries {
		confirmed := 0
		for _, c := range e.Confirmed {
			if c {
				confirmed++
			}
		}
		fmt.Fprintf(w, "  %s seed=%d keys=%d confirmed=%d blanked=%d\n",
			e.File, e.Seed, len(e.Keys), confirmed, e.Removed)
	}
}
