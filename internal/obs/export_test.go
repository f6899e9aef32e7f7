package obs

import (
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// freshRun executes on a scheduler built for this one run.
func freshRun(opts sched.Options, prog func(*sched.Ctx)) *sched.Result {
	return sched.New(opts).Run(prog)
}

// CaptureFresh is Capture on a fresh sched.New scheduler and fuzzer.New
// policy: the reference a warm capture shell must match.
func CaptureFresh(prog func(*sched.Ctx), program string, cycle *igoodlock.Cycle, target int, cfg fuzzer.Config, schedSeed int64, maxSteps int) (*Witness, error) {
	return capture(freshRun, fuzzer.New(cycle, cfg), prog, program, cycle, target, cfg, schedSeed, maxSteps)
}

// ReplayFresh is Replay on a fresh sched.New scheduler.
func ReplayFresh(prog func(*sched.Ctx), w *Witness) (*ReplayReport, error) {
	return replay(freshRun, prog, w)
}
