package main

// The `dlfuzz run` subcommand: one seeded execution of a CLF program
// under the plain random scheduler, with its print() output, its
// outcome report and, on request, its event trace and its schedule as
// a witness that `dlfuzz replay` reproduces.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
)

// runOnce is the `dlfuzz run` subcommand. Stdout holds the program's
// print() output, then the outcome report (writeOutcome), then the
// trace and schedule lines for -trace and -record. Exit codes: 0
// clean, 1 deadlock (lock cycle or a partial/total blocking verdict),
// 2 error.
func runOnce(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlfuzz run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 0, "scheduler seed")
		maxSteps  = fs.Int("max-steps", 0, "step bound (0 = default)")
		traceOut  = fs.String("trace", "", "write the event trace (JSON lines) to this file")
		recordOut = fs.String("record", "", "write the schedule to this file, as a witness")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	if len(fs.Args()) != 1 {
		fmt.Fprintln(stderr, "usage: dlfuzz run [flags] program.clf")
		return 2
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz run:", err)
		return 2
	}
	prog, err := lang.Parse(file, string(src))
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz run:", err)
		return 2
	}

	opts := sched.Options{Seed: *seed, MaxSteps: *maxSteps}
	var recorder *obs.RecordingPolicy
	if *recordOut != "" {
		recorder = obs.NewRecording(nil)
		opts.Policy = recorder
	}
	var collector *obs.Collector
	if *traceOut != "" {
		collector = obs.NewCollector()
		opts.Observers = append(opts.Observers, collector)
	}

	res, err := lang.NewInterp(prog, stdout).Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "dlfuzz run:", err)
		return 2
	}
	writeOutcome(stdout, res)
	if collector != nil {
		if err := writeFile(*traceOut, collector.Encode); err != nil {
			fmt.Fprintln(stderr, "dlfuzz run:", err)
			return 2
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s\n", collector.Len(), *traceOut)
	}
	if recorder != nil {
		wit := obs.NewWitness("clf:"+file, *seed, *maxSteps, fuzzer.DefaultConfig(), nil, 0, recorder.Schedule(), res)
		if err := writeFile(*recordOut, wit.Encode); err != nil {
			fmt.Fprintln(stderr, "dlfuzz run:", err)
			return 2
		}
		fmt.Fprintf(stdout, "schedule: %d decisions written to %s\n", len(wit.Schedule), *recordOut)
	}
	if res.Outcome == sched.Deadlock || res.Blocked != nil {
		return 1
	}
	return 0
}

// writeOutcome reports one execution: the outcome line, then the lock
// deadlock or the blocked verdict, if any. `dlfuzz replay` prints the
// same lines for a witness `dlfuzz run -record` wrote.
func writeOutcome(w io.Writer, res *sched.Result) {
	fmt.Fprintf(w, "outcome: %s (%d steps, %d events, %d threads, %d objects)\n",
		res.Outcome, res.Steps, res.Events, res.Spawned, res.Allocated)
	if res.Deadlock != nil {
		fmt.Fprintln(w, res.Deadlock)
	}
	if res.Blocked != nil {
		fmt.Fprintln(w, res.Blocked)
	}
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
