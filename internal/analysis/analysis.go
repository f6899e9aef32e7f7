package analysis

import (
	"errors"

	"dlfuzz/internal/event"
	"dlfuzz/internal/hb"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/trace"

	// Register the sound sync-preserving finder alongside the default
	// iGoodlock one: every pipeline consumer resolves finders by name.
	_ "dlfuzz/internal/predict/sync"
)

// Pipeline is an ordered set of analyses attached to one execution. The
// zero value is ready to use.
type Pipeline struct {
	observers []sched.Observer
}

// Attach registers any observer with the pipeline and returns it with
// its concrete type preserved, so results stay typed at the call site:
//
//	stats := analysis.Attach(p, analysis.NewStats())
//
// Observers see events in attachment order; attach suppliers (e.g. the
// HB tracker) before their consumers.
func Attach[O sched.Observer](p *Pipeline, o O) O {
	p.observers = append(p.observers, o)
	return o
}

// HB attaches a happens-before vector-clock tracker.
func (p *Pipeline) HB() *hb.Tracker {
	return Attach(p, hb.NewTracker())
}

// LockDeps attaches a lock-dependency recorder. clocks may be nil for a
// recorder without vector clocks; passing a tracker already attached to
// this pipeline (see HB) annotates every dependency with the acquiring
// thread's clock, which is what the happens-before cycle filter needs.
func (p *Pipeline) LockDeps(clocks lockset.ClockSource) *lockset.Recorder {
	r := lockset.NewRecorder()
	if clocks != nil {
		r = r.WithClocks(clocks)
	}
	return Attach(p, r)
}

// Trace attaches a full-event-stream collector.
func (p *Pipeline) Trace() *trace.Collector {
	return Attach(p, trace.NewCollector())
}

// Stats attaches a per-kind event counter.
func (p *Pipeline) Stats() *Stats {
	return Attach(p, NewStats())
}

// Exec configures one pipeline execution.
type Exec struct {
	Seed     int64
	MaxSteps int
	// Policy selects the scheduling policy; nil means the plain random
	// scheduler (Algorithm 2).
	Policy sched.Policy
	// UnbatchedWork runs the scheduler with per-step Work requests
	// instead of batched grants; observed streams are byte-identical
	// either way (the differential tests set this, nothing else should).
	UnbatchedWork bool
}

// Run executes prog once under ex with every attached analysis
// observing. The analyses' results are read from the analysis values
// themselves; Run returns the scheduler's result. The pipeline may be
// run again, but analyses accumulate — attach fresh ones per execution
// unless accumulation is wanted.
func (p *Pipeline) Run(prog func(*sched.Ctx), ex Exec) *sched.Result {
	return sched.New(p.options(ex)).Run(prog)
}

// RunPooled is Run with the scheduler shell drawn from (and recycled
// into) pool. Pooled shells are reset to the observable state of fresh
// ones, so the result and every observer's view are byte-identical to
// Run's; campaign workers use this to amortize scheduler allocation
// across their seeds.
func (p *Pipeline) RunPooled(pool *sched.Pool, prog func(*sched.Ctx), ex Exec) *sched.Result {
	return pool.Run(p.options(ex), prog)
}

func (p *Pipeline) options(ex Exec) sched.Options {
	return sched.Options{
		Seed:          ex.Seed,
		MaxSteps:      ex.MaxSteps,
		Policy:        ex.Policy,
		Observers:     append([]sched.Observer(nil), p.observers...),
		UnbatchedWork: ex.UnbatchedWork,
	}
}

// Stats is a cheap always-on analysis: event totals by kind.
type Stats struct {
	// Events is the total number of observed events.
	Events uint64
	// ByKind counts events per statement kind.
	ByKind [event.NumKinds]uint64
}

// NewStats returns a zeroed stats analysis.
func NewStats() *Stats { return &Stats{} }

// OnEvent implements sched.Observer.
func (s *Stats) OnEvent(ev sched.Ev) {
	s.Events++
	if ev.Kind >= 0 && int(ev.Kind) < event.NumKinds {
		s.ByKind[ev.Kind]++
	}
}

// ErrNoCompletedRun is returned when no seed yields a completed
// observation execution.
var ErrNoCompletedRun = errors.New("analysis: no seed produced a completed observation run")

// Observation is the outcome of a Phase I observation pass: one
// pipeline execution per attempted seed, dependency recording and
// happens-before tracking sharing the stream, a candidate finder and
// the HB filter run over the recorded relation.
type Observation struct {
	// Candidates are the finder's reports that survive the
	// happens-before filter, with their confirm-budget ranks;
	// Cycles is its cycle column (Cycles[i] == Candidates[i].Cycle),
	// kept because most consumers only need the Phase II targets.
	// FalsePositives were proved impossible by must-happens-before.
	Candidates     []*predict.Candidate
	Cycles         []*igoodlock.Cycle
	FalsePositives []*igoodlock.Cycle
	// Deps is the size of the recorded lock dependency relation.
	Deps int
	// Seed is the seed of the completed observation run (the last
	// attempted seed if none completed).
	Seed int64
	// Steps and Events describe the completed observation run (zero if
	// none completed); Stats breaks Events down by kind.
	Steps  int
	Events uint64
	Stats  *Stats
	// ObservedDeadlocks are real deadlocks hit by observation attempts
	// that did not complete. They are confirmed findings in their own
	// right — a deadlock witnessed is a deadlock found — not retry
	// artifacts, so they are preserved even though the runs that
	// produced them contribute no dependency relation.
	ObservedDeadlocks []*sched.DeadlockInfo
	// Attempts is the number of seeds tried (1 when the first seed
	// completed).
	Attempts int
}

// maxObserveAttempts bounds the retry loop over seeds.
const maxObserveAttempts = 100

// runOutcome is one observation run's raw result: the retry loop over
// seeds base..base+maxObserveAttempts-1 reduced to the first completing
// execution's recordings (or to the witnessed deadlocks when none
// completed).
type runOutcome struct {
	seed      int64 // completing seed, or the last attempted one
	attempts  int
	completed bool
	deps      []*lockset.Dep
	hist      *predict.History
	steps     int
	events    uint64
	stats     *Stats
	deadlocks []*sched.DeadlockInfo
}

// observeFunc executes one observation run; observeRun is the
// implementation, and the differential test supplies a reference that
// observes every attempt.
type observeFunc func(pool *sched.Pool, prog func(*sched.Ctx), base int64, maxSteps int, withHistory bool) runOutcome

// observeRun executes one observation run: seeds from base upward are
// tried until an execution completes. Attempts that deadlock are
// recorded on the outcome, not discarded. withHistory additionally
// records the run's synchronization history.
//
// Only the completing attempt's recordings are kept, so only it pays for
// the observers. The first attempt runs under the full HB +
// lock-dependency pipeline, which is free when it completes (the common
// case); every later attempt runs bare, with no observers attached, and
// the one that completes is executed again, observed. The re-execution
// is exact: an execution is a pure function of (program, policy, seed)
// and observers never influence scheduling decisions, the same
// invariant witness capture relies on. A bare attempt's deadlock report
// is the scheduler's own, identical with or without observers.
func observeRun(pool *sched.Pool, prog func(*sched.Ctx), base int64, maxSteps int, withHistory bool) runOutcome {
	ro := runOutcome{seed: base}
	for attempt := 0; attempt < maxObserveAttempts; attempt++ {
		s := base + int64(attempt)
		ro.seed = s
		ro.attempts = attempt + 1
		if attempt > 0 {
			res := pool.Run(sched.Options{Seed: s, MaxSteps: maxSteps}, prog)
			if res.Outcome != sched.Completed {
				ro.recordFailure(res)
				continue
			}
		}
		var p Pipeline
		tracker := p.HB()
		rec := p.LockDeps(tracker)
		stats := p.Stats()
		var hist *predict.History
		if withHistory {
			hist = Attach(&p, predict.NewHistory())
		}
		res := p.RunPooled(pool, prog, Exec{Seed: s, MaxSteps: maxSteps})
		if res.Outcome != sched.Completed {
			ro.recordFailure(res)
			continue
		}
		ro.completed = true
		ro.deps = rec.Deps()
		ro.hist = hist
		ro.steps = res.Steps
		ro.events = res.Events
		ro.stats = stats
		return ro
	}
	return ro
}

// recordFailure keeps what a non-completing attempt witnessed: a real
// deadlock is a finding in its own right.
func (ro *runOutcome) recordFailure(res *sched.Result) {
	if res.Outcome == sched.Deadlock && res.Deadlock != nil {
		ro.deadlocks = append(ro.deadlocks, res.Deadlock)
	}
}

// partitionCandidates applies the must-happens-before filter to a
// finder's report, preserving order: surviving candidates (and their
// cycle column) versus provably-false cycles.
func partitionCandidates(cands []*predict.Candidate) (keep []*predict.Candidate, cycles, fps []*igoodlock.Cycle) {
	for _, cand := range cands {
		if hb.ProvablyFalse(cand.Cycle) {
			fps = append(fps, cand.Cycle)
		} else {
			keep = append(keep, cand)
			cycles = append(cycles, cand.Cycle)
		}
	}
	return keep, cycles, fps
}

// Observe runs the Phase I observation pass with the default finder:
// seeds from seed upward are tried until an execution completes, each
// attempt running a fresh HB + lock-dependency pipeline. Attempts that
// deadlock are recorded on the result, not discarded. If no seed
// completes within the attempt budget, Observe returns ErrNoCompletedRun
// together with a partial (cycle-less) Observation carrying whatever
// deadlocks were witnessed — callers that give up on prediction can
// still report those.
func Observe(prog func(*sched.Ctx), cfg predict.Config, seed int64, maxSteps int) (*Observation, error) {
	return ObserveWith(prog, nil, cfg, seed, maxSteps)
}

// ObserveWith is Observe with an explicit candidate finder (nil means
// the default iGoodlock closure). The observation execution is
// identical for every finder — only the prediction over the recorded
// relation differs (plus a synchronization-history observer when the
// finder needs one, which does not perturb scheduling).
func ObserveWith(prog func(*sched.Ctx), f predict.CandidateFinder, cfg predict.Config, seed int64, maxSteps int) (*Observation, error) {
	if f == nil {
		f = predict.Default()
	}
	ro := observeRun(sched.NewPool(), prog, seed, maxSteps, f.Caps().NeedsHistory)
	obs := &Observation{
		Seed:              ro.seed,
		Attempts:          ro.attempts,
		ObservedDeadlocks: ro.deadlocks,
	}
	if !ro.completed {
		return obs, ErrNoCompletedRun
	}
	pobs := &predict.Observation{Deps: ro.deps}
	if ro.hist != nil {
		pobs.Histories = map[int]*predict.History{0: ro.hist}
	}
	cfgRun := cfg
	cfgRun.Parallelism = 1 // single-run relations close serially
	obs.Candidates, obs.Cycles, obs.FalsePositives = partitionCandidates(f.Find(pobs, cfgRun))
	obs.Deps = len(ro.deps)
	obs.Steps = ro.steps
	obs.Events = ro.events
	obs.Stats = ro.stats
	return obs, nil
}
