// Command clfrun executes a CLF program once under the deterministic
// scheduler and reports the outcome. It can record the event trace and
// the schedule, and replay a previously recorded schedule — useful for
// attaching a reproducible witness to a deadlock report. Schedules are
// witness files, the format `dlfuzz -witness-dir` writes and `dlfuzz
// replay` reads, so either tool replays the other's.
//
//	clfrun prog.clf                       # one random run (seed 0)
//	clfrun -seed 7 prog.clf               # a specific interleaving
//	clfrun -trace out.jsonl prog.clf      # record the event stream
//	clfrun -record run.jsonl prog.clf     # record the schedule as a witness
//	clfrun -replay run.jsonl prog.clf     # replay a witness at its seed and step bound
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dlfuzz"
	"dlfuzz/internal/cliflag"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the outcome report
// can be golden-tested. Exit codes: 0 clean, 1 deadlock (lock cycle or
// a partial/total blocking verdict), 2 error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clfrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 0, "scheduler seed")
		maxSteps  = fs.Int("max-steps", 0, "step bound (0 = default)")
		traceOut  = fs.String("trace", "", "write the event trace (JSON lines) to this file")
		recordOut = fs.String("record", "", "write the schedule to this file, as a witness")
		replayIn  = fs.String("replay", "", "replay this witness file, at its seed and step bound")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return 2
	}
	if len(fs.Args()) != 1 {
		fmt.Fprintln(stderr, "usage: clfrun [flags] program.clf")
		return 2
	}
	if *replayIn != "" {
		bad := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "record", "seed", "max-steps":
				if bad == "" {
					bad = f.Name
				}
			}
		})
		if bad != "" {
			fmt.Fprintf(stderr, "clfrun: -%s and -replay cannot be combined\n", bad)
			return 2
		}
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(stderr, "clfrun:", err)
		return 2
	}
	prog, err := lang.Parse(file, string(src))
	if err != nil {
		fmt.Fprintln(stderr, "clfrun:", err)
		return 2
	}

	opts := sched.Options{Seed: *seed, MaxSteps: *maxSteps}
	var recorder *obs.RecordingPolicy
	var replayer *obs.ReplayPolicy
	switch {
	case *replayIn != "":
		f, err := os.Open(*replayIn)
		if err != nil {
			fmt.Fprintln(stderr, "clfrun:", err)
			return 2
		}
		wit, err := obs.ReadWitness(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "clfrun:", err)
			return 2
		}
		opts, replayer = wit.ReplayOptions()
	case *recordOut != "":
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
		fmt.Fprintln(stderr, "clfrun:", err)
		return 2
	}

	fmt.Fprintf(stdout, "outcome: %s (%d steps, %d events, %d threads, %d objects)\n",
		res.Outcome, res.Steps, res.Events, res.Spawned, res.Allocated)
	if res.Deadlock != nil {
		fmt.Fprintln(stdout, res.Deadlock)
	}
	if res.Blocked != nil {
		fmt.Fprintln(stdout, res.Blocked)
	}
	if replayer != nil && replayer.Diverged() {
		fmt.Fprintln(stdout, "warning: replay diverged from the recorded schedule")
	}
	if collector != nil {
		if err := writeFile(*traceOut, collector.Encode); err != nil {
			fmt.Fprintln(stderr, "clfrun:", err)
			return 2
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s\n", collector.Len(), *traceOut)
	}
	if recorder != nil {
		wit := obs.NewWitness("clf:"+file, *seed, *maxSteps, fuzzer.DefaultConfig(), nil, 0, recorder.Schedule(), res)
		if err := writeFile(*recordOut, wit.Encode); err != nil {
			fmt.Fprintln(stderr, "clfrun:", err)
			return 2
		}
		fmt.Fprintf(stdout, "schedule: %d decisions written to %s\n", len(wit.Schedule), *recordOut)
	}
	if res.Outcome == dlfuzz.Deadlock || res.Blocked != nil {
		return 1
	}
	return 0
}

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
