package main

// Witness emission (-witness-dir) and the `dlfuzz replay` subcommand:
// the CLI surface of internal/obs. A campaign writes one witness trace
// per confirmed cycle, and `dlfuzz run -record` one per run; replay
// re-executes a trace's recorded schedule and asserts the recorded
// run re-forms.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dlfuzz"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/lang"
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
		if err := writeFile(path, wit.Encode); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "witness: wrote %s (deadlock at step %d, %d schedule decisions)\n",
			path, wit.DeadlockStep, len(wit.Schedule))
	}
	return nil
}

// runReplay is the `dlfuzz replay` subcommand: replay every witness
// given as a file or found in a given directory, assert each recorded
// run reproduces (obs.Replay), and render it. A witness that targets no
// cycle, such as one `dlfuzz run -record` wrote, also gets the outcome
// report that command printed. Exit 0 when every witness reproduces, 1
// when any fails to, 2 on usage or read errors.
func runReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlfuzz replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quiet := fs.Bool("q", false, "only report pass/fail, not the rendered witness")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wits, err := readWitnesses(fs.Args(), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz replay:", err)
		return 2
	}
	failed := 0
	for _, w := range wits {
		prog, err := resolveWitnessProgram(w.Program)
		if err != nil {
			fmt.Fprintf(stderr, "dlfuzz replay: %s: %v\n", w.path, err)
			return 2
		}
		rep, err := replayWitness(prog, w.Witness)
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s\n", w.path)
			fmt.Fprintf(stderr, "dlfuzz replay: %s: %v\n", w.path, err)
			failed++
			continue
		}
		if res := rep.Result; res.Deadlock != nil {
			fmt.Fprintf(stdout, "ok   %s: deadlock reproduced at step %d\n", w.path, res.Deadlock.Step)
		} else {
			fmt.Fprintf(stdout, "ok   %s: run reproduced at step %d\n", w.path, res.Steps)
		}
		if len(w.Components) == 0 {
			writeOutcome(stdout, rep.Result)
		}
		if !*quiet {
			report.WriteWitness(stdout, w.Witness)
		}
	}
	fmt.Fprintf(stdout, "%d of %d witnesses reproduced\n", len(wits)-failed, len(wits))
	if failed > 0 {
		return 1
	}
	return 0
}

// replayWitness is obs.Replay with a CLF runtime error reached during
// the replay, such as one a program edited since the recording now
// hits, returned as the replay's error instead of a panic. Other panics
// propagate.
func replayWitness(prog func(*dlfuzz.Ctx), w *obs.Witness) (rep *obs.ReplayReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rt, ok := lang.AsRuntimeError(r)
			if !ok {
				panic(r)
			}
			rep, err = nil, rt
		}
	}()
	return obs.Replay(prog, w)
}

// witnessFile is one decoded witness and the file it came from.
type witnessFile struct {
	*obs.Witness
	path string
}

// readWitnesses expands the subcommand's arguments and decodes them: a
// file stands for itself and must be a witness; a directory stands for
// its *.jsonl entries, in name order, whose first line is a witness
// header. Each other entry, such as a journal written beside the
// witnesses, is skipped with a note on stderr.
func readWitnesses(args []string, stderr io.Writer) ([]witnessFile, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("usage: dlfuzz replay witness.jsonl... | dlfuzz replay witness-dir")
	}
	var out []witnessFile
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			wit, err := readWitnessFile(arg)
			if err != nil {
				return nil, err
			}
			out = append(out, witnessFile{wit, arg})
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.jsonl"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		found := len(out)
		for _, path := range matches {
			wit, err := readWitnessFile(path)
			if errors.Is(err, obs.ErrNotWitness) {
				fmt.Fprintln(stderr, "dlfuzz replay: skipping", err)
				continue
			}
			if err != nil {
				return nil, err
			}
			out = append(out, witnessFile{wit, path})
		}
		if len(out) == found {
			return nil, fmt.Errorf("no witnesses in %s", arg)
		}
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
// is discarded so replays stay comparable, and only `dlfuzz run` shows
// it).
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
