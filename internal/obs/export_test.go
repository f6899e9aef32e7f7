package obs

import (
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// CaptureFresh is Capture on a fresh fuzzer.New policy: the reference a
// capture on a pooled policy must match.
func CaptureFresh(prog func(*sched.Ctx), program string, cycle *igoodlock.Cycle, target int, cfg fuzzer.Config, schedSeed int64, maxSteps int) (*Witness, error) {
	return capture(fuzzer.New(cycle, cfg), prog, program, cycle, target, cfg, schedSeed, maxSteps)
}

// ReplayFresh is the reference replay. Replay borrows no pooled policy,
// so it is Replay itself; the scheduler's warm shells are held to
// brand-new ones by the sched package's own tests.
func ReplayFresh(prog func(*sched.Ctx), w *Witness) (*ReplayReport, error) {
	return Replay(prog, w)
}
