package main

// Witness emission (-witness-dir) and the `dlfuzz replay` subcommand:
// the CLI surface of internal/obs. A campaign writes one witness trace
// per confirmed cycle; replay re-executes a trace's recorded schedule
// and asserts the same deadlock re-forms.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dlfuzz"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/report"
	"dlfuzz/internal/workloads"
)

// fuzzerConfigOf lowers the CLI's confirm options to the checker config
// witness capture needs.
func fuzzerConfigOf(o dlfuzz.ConfirmOptions) fuzzer.Config {
	return fuzzer.Config{
		Abstraction: o.Abstraction,
		K:           o.K,
		UseContext:  o.UseContext,
		YieldOpt:    o.YieldOpt,
	}
}

// writeWitnesses captures and writes one witness trace per confirmed
// cycle into dir (created if missing), as cycle-NN.jsonl in report
// order. For a cross-credited cycle the witnessing execution was biased
// toward another candidate; the capture re-runs that exact execution.
func writeWitnesses(dir, programRef string, prog func(*dlfuzz.Ctx), cycles []*dlfuzz.Cycle,
	reports []*dlfuzz.ConfirmReport, copts dlfuzz.ConfirmOptions, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := fuzzerConfigOf(copts)
	for i, rep := range reports {
		if !rep.Confirmed() {
			continue
		}
		// Re-create the first confirming execution: a targeted
		// reproduction if one exists, otherwise the cross-matching run.
		biasTarget, schedSeed := i, rep.ExampleSeed
		if rep.Example == nil {
			biasTarget, schedSeed = rep.CrossExampleTarget, rep.CrossExampleSeed
		}
		wit, err := obs.Capture(prog, programRef, cycles[biasTarget], biasTarget, cfg, schedSeed, copts.MaxSteps)
		if err != nil {
			return fmt.Errorf("witness for cycle %d: %w", i+1, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("cycle-%02d.jsonl", i+1))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := wit.Encode(f); err != nil {
			f.Close()
			return fmt.Errorf("witness %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "witness: wrote %s (deadlock at step %d, %d schedule decisions)\n",
			path, wit.DeadlockStep, len(wit.Schedule))
	}
	return nil
}

// runReplay is the `dlfuzz replay` subcommand: replay every witness
// given as a file or found in a given directory, assert each recorded
// deadlock reproduces, and render it. Exit 0 when every witness
// reproduces, 1 when any fails to, 2 on usage or read errors.
func runReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlfuzz replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quiet := fs.Bool("q", false, "only report pass/fail, not the rendered witness")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths, err := witnessPaths(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz replay:", err)
		return 2
	}
	failed := 0
	for _, path := range paths {
		wit, err := readWitnessFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "dlfuzz replay:", err)
			return 2
		}
		prog, err := resolveWitnessProgram(wit.Program)
		if err != nil {
			fmt.Fprintf(stderr, "dlfuzz replay: %s: %v\n", path, err)
			return 2
		}
		rep, err := obs.Replay(prog, wit)
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s\n", path)
			fmt.Fprintf(stderr, "dlfuzz replay: %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "ok   %s: deadlock reproduced at step %d\n", path, rep.Result.Deadlock.Step)
		if !*quiet {
			report.WriteWitness(stdout, wit)
		}
	}
	fmt.Fprintf(stdout, "%d of %d witnesses reproduced\n", len(paths)-failed, len(paths))
	if failed > 0 {
		return 1
	}
	return 0
}

// witnessPaths expands the subcommand's arguments: files stand for
// themselves, directories for their *.jsonl entries in name order.
func witnessPaths(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("usage: dlfuzz replay witness.jsonl... | dlfuzz replay witness-dir")
	}
	var out []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.jsonl"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("no *.jsonl witnesses in %s", arg)
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	return out, nil
}

// readWitnessFile decodes one witness trace.
func readWitnessFile(path string) (*obs.Witness, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	wit, err := obs.ReadWitness(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return wit, nil
}

// resolveWitnessProgram resolves a witness header's program reference:
// "workload:NAME" names a built-in, "clf:PATH" a CLF source file
// (relative to the replaying process's working directory; print output
// is discarded so replays stay comparable).
func resolveWitnessProgram(ref string) (func(*dlfuzz.Ctx), error) {
	if name, ok := strings.CutPrefix(ref, "workload:"); ok {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		return w.Prog, nil
	}
	if path, ok := strings.CutPrefix(ref, "clf:"); ok {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		p, err := dlfuzz.ParseCLF(path, string(src))
		if err != nil {
			return nil, err
		}
		return p.Body(), nil
	}
	return nil, fmt.Errorf("unresolvable program reference %q (want workload:NAME or clf:PATH)", ref)
}
