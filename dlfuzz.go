package dlfuzz

import (
	"fmt"
	"io"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/avoid"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/object"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
)

// Core types, re-exported so downstream users never import internal
// packages directly.
type (
	// Ctx is the per-thread API a program under test uses: New,
	// Acquire/Release/Sync, Call, Spawn, Join, Work, latches.
	Ctx = sched.Ctx
	// Thread is a simulated thread handle.
	Thread = sched.Thread
	// Latch is a one-shot broadcast synchronization object.
	Latch = sched.Latch
	// Obj is a dynamic object (anything with a lockable monitor).
	Obj = object.Obj
	// Loc is a statement label identifying a program location.
	Loc = event.Loc
	// Cycle is a potential deadlock cycle reported by Phase I.
	Cycle = igoodlock.Cycle
	// Candidate is a cycle with its Phase II confirm-budget rank and the
	// name of the finder that reported it.
	Candidate = predict.Candidate
	// DeadlockInfo describes a confirmed deadlock: the cycle of
	// threads, the locks they hold and want, and the acquire contexts.
	DeadlockInfo = sched.DeadlockInfo
	// Result is one scheduled execution's outcome.
	Result = sched.Result
	// Outcome classifies how an execution ended.
	Outcome = sched.Outcome
	// RunRecord is the per-execution telemetry record a confirm
	// campaign streams through ConfirmOptions.OnRun (see internal/obs
	// and docs/OBSERVABILITY.md for the journal format built on it).
	RunRecord = obs.RunRecord
	// Chan is a Go-style channel handle (Ctx.NewChan/Send/Recv/Close).
	Chan = sched.Chan
	// WaitGroup is a counter barrier handle (Ctx.NewWaitGroup/WGAdd/
	// WGDone/WGWait).
	WaitGroup = sched.WaitGroup
	// BlockedInfo classifies the provably stuck threads of a run that
	// ended blocked on channels, WaitGroups, or monitor waits — a
	// partial or total deadlock (see docs/PARTIAL_DEADLOCKS.md).
	BlockedInfo = sched.BlockedInfo
	// BlockedThread is one stuck thread inside a BlockedInfo.
	BlockedThread = sched.BlockedThread
)

// Execution outcomes.
const (
	// Completed means every thread terminated normally.
	Completed = sched.Completed
	// Deadlock means a resource deadlock was confirmed.
	Deadlock = sched.Deadlock
	// Stall means a communication deadlock (no lock cycle).
	Stall = sched.Stall
	// StepLimit means the execution hit its step bound.
	StepLimit = sched.StepLimit
)

// Abstraction selects how thread and lock objects are identified across
// executions (paper Section 2.4).
type Abstraction = object.Abstraction

// The three abstraction schemes.
const (
	// TrivialAbstraction treats all objects as the same.
	TrivialAbstraction = object.Trivial
	// KObjectAbstraction is k-object-sensitivity: the chain of
	// allocation sites through creating objects.
	KObjectAbstraction = object.KObject
	// ExecIndexAbstraction is light-weight execution indexing, the
	// paper's best-performing scheme and the default.
	ExecIndexAbstraction = object.ExecIndex
)

// FindOptions configures Phase I.
type FindOptions struct {
	// Abstraction and K configure object identification.
	Abstraction Abstraction
	K           int
	// MaxCycleLen bounds reported cycle length (0 = unbounded). The
	// paper notes every real deadlock found had length 2.
	MaxCycleLen int
	// Seed is the first scheduler seed tried for the observation run.
	Seed int64
	// MaxSteps bounds the observation execution (0 = default).
	MaxSteps int
	// Runs is the number of observation executions (0 and 1 both mean
	// one). Extra runs observe the program under different schedules,
	// their dependency relations are merged (deduplicated) in run order,
	// and iGoodlock runs once over the merge — so cycles that need lock
	// orders from different runs are still found, and the report is a
	// superset of what any single run predicts.
	Runs int
	// Parallelism shards observation runs across workers and the closure
	// of the merged relation across the same number of shards: 0 means
	// one worker per core, 1 means serial. The report is identical at
	// every setting.
	Parallelism int
	// Finder selects the Phase I candidate finder by name: "" and
	// "igoodlock" are the paper's closure, "sync" the sound
	// sync-preserving predictor (every candidate it reports is
	// realizable from the observed trace). See FinderNames.
	Finder string
}

// FinderNames lists the registered Phase I finders, default first.
func FinderNames() []string { return predict.Names() }

// DefaultFindOptions returns the paper's configuration: execution
// indexing with k=10.
func DefaultFindOptions() FindOptions {
	return FindOptions{Abstraction: ExecIndexAbstraction, K: 10}
}

// FindReport is Phase I's output.
type FindReport struct {
	// Cycles are potential deadlocks that could be real.
	Cycles []*Cycle
	// Candidates pairs each cycle with its confirm-budget rank and
	// finder name (Candidates[i].Cycle == Cycles[i]).
	Candidates []*Candidate
	// FalsePositives are reports proven impossible by the
	// happens-before relation of the observed run.
	FalsePositives []*Cycle
	// Deps is the size of the recorded lock dependency relation.
	Deps int
	// Seed is the seed of the observation run that completed (the last
	// attempted seed when none did).
	Seed int64
	// ObservedDeadlocks are real deadlocks hit by observation attempts
	// that did not complete — confirmed findings in their own right,
	// reported even though those runs contribute no cycle prediction.
	ObservedDeadlocks []*DeadlockInfo
	// Attempts is the number of observation seeds tried.
	Attempts int
	// ObservationRuns and CompletedRuns size the observation campaign
	// (both 1 for a single-run Find); RawDeps is the total relation size
	// across runs before the merge, so RawDeps-Deps dependencies were
	// duplicates.
	ObservationRuns int
	CompletedRuns   int
	RawDeps         int
	// NewCyclesByRun is the saturation curve: per run, in run order, how
	// many of its plausible cycles no earlier run had reported.
	NewCyclesByRun []int
}

// Find observes prog and reports potential deadlock cycles (iGoodlock).
// With opts.Runs > 1 it runs a multi-seed observation campaign: the
// runs' dependency relations are merged and closed once, so the report
// is a superset of any single run's. Each run retries seeds until an
// observation execution completes; ErrNoCompletedRun is returned if no
// run completes, together with a partial report carrying any deadlocks
// the attempts witnessed.
func Find(prog func(*Ctx), opts FindOptions) (*FindReport, error) {
	cfg := predict.Config{
		Abstraction: opts.Abstraction,
		K:           opts.K,
		MaxLen:      opts.MaxCycleLen,
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("dlfuzz: negative abstraction depth K=%d", opts.K)
	}
	finder, err := predict.ByName(opts.Finder)
	if err != nil {
		return nil, err
	}
	p1, err := analysis.ObserveMany(prog, cfg, analysis.CampaignOptions{
		Runs:               opts.Runs,
		Parallelism:        opts.Parallelism,
		ClosureParallelism: opts.Parallelism,
		Seed:               opts.Seed,
		MaxSteps:           opts.MaxSteps,
		Finder:             finder,
	})
	newCycles := make([]int, len(p1.PerRun))
	for i, rs := range p1.PerRun {
		newCycles[i] = rs.NewCycles
	}
	return &FindReport{
		Cycles:            p1.Cycles,
		Candidates:        p1.Candidates,
		FalsePositives:    p1.FalsePositives,
		Deps:              p1.Deps,
		Seed:              p1.Seed,
		ObservedDeadlocks: p1.ObservedDeadlocks,
		Attempts:          p1.Attempts,
		ObservationRuns:   p1.Runs,
		CompletedRuns:     p1.Completed,
		RawDeps:           p1.RawDeps,
		NewCyclesByRun:    newCycles,
	}, err
}

// Ranks returns the report's confirm-budget ranks, parallel to Cycles —
// the shape ConfirmOptions.Ranks takes. Nil when the report has no
// candidates (e.g. a partial report from a failed observation).
func (r *FindReport) Ranks() []float64 {
	if len(r.Candidates) == 0 {
		return nil
	}
	return predict.Ranks(r.Candidates)
}

// ErrNoCompletedRun is returned by Find when every attempted observation
// run deadlocks or stalls.
var ErrNoCompletedRun = analysis.ErrNoCompletedRun

// ConfirmOptions configures Phase II.
type ConfirmOptions struct {
	// Abstraction and K must match the FindOptions that produced the
	// cycle.
	Abstraction Abstraction
	K           int
	// UseContext gates pause decisions on the full acquire context.
	UseContext bool
	// YieldOpt enables the Section 4 yield optimization.
	YieldOpt bool
	// Runs is the number of randomized executions (the paper uses
	// 100); 0 means 100.
	Runs int
	// MaxSteps bounds each execution (0 = default).
	MaxSteps int
	// Parallelism shards the campaign's seeds across workers: 0 means
	// one worker per core, 1 means serial. The scheduler is
	// deterministic per seed, so the report is identical at every
	// setting (only wall time changes). Parallel campaigns require prog
	// to tolerate concurrent executions; workload and CLF program
	// bodies do.
	Parallelism int
	// StopAfter, when positive, ends the campaign once that many runs
	// (in seed order) have reproduced the cycle; the report's Runs
	// field then says how many seeds actually contributed.
	StopAfter int
	// OnRun, when non-nil, receives one RunRecord per campaign
	// execution, in seed order — the hook behind `dlfuzz -journal`.
	// Leaving it nil keeps the execution hot path allocation-free.
	OnRun func(*RunRecord)
	// Ranks, when non-nil, spends ConfirmAll's round-robin budget on
	// higher-ranked candidates first (ties break by canonical cycle
	// key); it must be parallel to the cycles slice — FindReport.Ranks
	// produces it. Nil targets candidates in input order. Reports stay
	// indexed by input order either way, and the default finder's
	// strictly decreasing ranks make ranked order identical to input
	// order.
	Ranks []float64
}

// DefaultConfirmOptions returns the paper's variant 2 with 100 runs.
func DefaultConfirmOptions() ConfirmOptions {
	return ConfirmOptions{
		Abstraction: ExecIndexAbstraction, K: 10,
		UseContext: true, YieldOpt: true, Runs: 100,
	}
}

// ConfirmReport summarizes one cycle's slice of a Phase II campaign:
// the embedded campaign.CycleSummary carries the run totals (Runs,
// Reproduced, Deadlocked, Thrashes, Yields, Steps, Example), the
// derived statistics (Probability, AvgThrashes, AvgSteps), and — for
// multi-cycle campaigns — cross-credits (CrossMatches, CrossExample)
// plus Confirmed and Witness. Single-cycle reports from Confirm have no
// cross-credits, so Confirmed reduces to Reproduced > 0 there.
type ConfirmReport struct {
	campaign.CycleSummary
}

// Confirm runs the active random checker against one potential cycle:
// a ConfirmAll campaign over that cycle alone, so every run targets it
// with scheduler seeds 0..Runs-1. opts.Ranks is ignored (one cycle has
// no budget to order). The campaign is sharded across workers per
// opts.Parallelism; see internal/campaign for why the report is
// identical at any setting.
func Confirm(prog func(*Ctx), cycle *Cycle, opts ConfirmOptions) *ConfirmReport {
	opts.Ranks = nil
	return ConfirmAll(prog, []*Cycle{cycle}, opts).Reports[0]
}

// fuzzerConfig lowers the public options to the internal checker config.
func (o ConfirmOptions) fuzzerConfig() fuzzer.Config {
	return fuzzer.Config{
		Abstraction: o.Abstraction,
		K:           o.K,
		UseContext:  o.UseContext,
		YieldOpt:    o.YieldOpt,
	}
}

// MultiReport is the outcome of one multi-cycle Phase II campaign: a
// per-cycle ConfirmReport for every candidate plus campaign totals.
type MultiReport struct {
	// Reports has one entry per candidate cycle, in input order.
	Reports []*ConfirmReport
	// Executions is the total number of Phase II executions consumed —
	// at most Runs + len(cycles) - 1, instead of the per-cycle path's
	// len(cycles) × Runs.
	Executions int
	// Deadlocked counts executions that hit any real deadlock;
	// Unmatched counts deadlocks that matched no candidate cycle.
	Deadlocked int
	Unmatched  int
	// Thrashes, Yields and Steps are totals across all executions.
	Thrashes int
	Yields   int
	Steps    int
}

// Confirmed returns the reports of the confirmed cycles, in input order.
func (m *MultiReport) Confirmed() []*ConfirmReport {
	var out []*ConfirmReport
	for _, r := range m.Reports {
		if r.Confirmed() {
			out = append(out, r)
		}
	}
	return out
}

// ConfirmAll runs one multi-cycle campaign targeting every candidate at
// once: opts.Runs is the *total* execution budget shared across cycles
// (each execution biases toward one cycle, round-robin in seed order),
// and every confirmed deadlock is credited to every candidate it
// matches — targeted matches as Reproduced, others as CrossMatches. The
// report is byte-identical at every Parallelism setting for a fixed
// seed range. StopAfter counts targeted reproductions across all
// cycles.
func ConfirmAll(prog func(*Ctx), cycles []*Cycle, opts ConfirmOptions) *MultiReport {
	if opts.Runs == 0 {
		opts.Runs = 100
	}
	sum := campaign.ConfirmCycles(prog, cycles, opts.fuzzerConfig(), opts.Runs, opts.MaxSteps, campaign.Options{
		Parallelism: opts.Parallelism,
		StopAfter:   opts.StopAfter,
		OnRun:       opts.OnRun,
		Ranks:       opts.Ranks,
	})
	out := &MultiReport{
		Executions: sum.Executions,
		Deadlocked: sum.Deadlocked,
		Unmatched:  sum.Unmatched,
		Thrashes:   sum.Thrashes,
		Yields:     sum.Yields,
		Steps:      sum.Steps,
	}
	for i := range sum.Cycles {
		out.Reports = append(out.Reports, &ConfirmReport{CycleSummary: sum.Cycles[i]})
	}
	return out
}

// BlockingOptions configures a blocking-deadlock campaign.
type BlockingOptions struct {
	// Runs is the number of seeded executions (default 100), seeds
	// 0..Runs-1.
	Runs int
	// MaxSteps bounds each execution (0 = scheduler default).
	MaxSteps int
	// Bias in (0,1] delays completing operations (channel sends and
	// closes, signals, notifies, WaitGroup decrements) with that
	// probability at each scheduling decision, biasing runs toward
	// blocking interleavings; 0 means the plain uniform scheduler.
	Bias float64
	// Parallelism shards seeds across workers; the report is identical
	// at every setting (0 = one per core, 1 = serial).
	Parallelism int
	// StopAfter, when positive, ends the campaign once that many runs
	// ended with a blocked classification.
	StopAfter int
}

// DefaultBlockingOptions returns 100 runs under a 0.7 completion-delay
// bias.
func DefaultBlockingOptions() BlockingOptions {
	return BlockingOptions{Runs: 100, Bias: 0.7}
}

// BlockingReport is the outcome of a blocking campaign: run counts by
// classification and the distinct stuck-state verdicts, aggregated by
// canonical key (BlockedInfo.Key) and ordered by key. Deterministic for
// a fixed seed range at every Parallelism.
type BlockingReport struct {
	campaign.BlockingSummary
}

// Verdict is one distinct blocked classification with its run count
// and first witnessing seed.
type Verdict = campaign.BlockingVerdict

// FindBlocking runs a blocking-deadlock campaign over prog: unlike the
// two-phase mutex pipeline (Find/ConfirmAll), which targets lock-order
// cycles, this campaign detects executions whose threads end provably
// stuck on channel operations, WaitGroup waits, or monitor waits, and
// classifies each stuck state as a partial or total deadlock (see
// docs/PARTIAL_DEADLOCKS.md). Lock-cycle deadlocks encountered on the
// way are counted (DeadlockRuns) but not classified — run the mutex
// pipeline for those.
func FindBlocking(prog func(*Ctx), opts BlockingOptions) *BlockingReport {
	if opts.Runs == 0 {
		opts.Runs = 100
	}
	sum := campaign.Blocking(prog, opts.Runs, opts.MaxSteps, opts.Bias, campaign.Options{
		Parallelism: opts.Parallelism,
		StopAfter:   opts.StopAfter,
	})
	return &BlockingReport{BlockingSummary: *sum}
}

// CheckOptions configures the full two-phase pipeline.
type CheckOptions struct {
	Find    FindOptions
	Confirm ConfirmOptions
}

// DefaultCheckOptions combines the two phase defaults.
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{Find: DefaultFindOptions(), Confirm: DefaultConfirmOptions()}
}

// CheckedCycle pairs a potential cycle with its slice of the
// confirmation campaign.
type CheckedCycle struct {
	Cycle   *Cycle
	Confirm *ConfirmReport
}

// CheckReport is the full pipeline's output.
type CheckReport struct {
	Find   *FindReport
	Cycles []CheckedCycle
	// Executions is the total number of Phase II executions the check
	// cost (≤ Runs + len(Cycles) - 1; the campaign budget is shared
	// across cycles, not multiplied by them).
	Executions int
	// Unmatched counts Phase II deadlocks that matched no candidate
	// cycle.
	Unmatched int
}

// Confirmed returns the cycles Phase II confirmed (by targeted
// reproduction or cross-credit).
func (r *CheckReport) Confirmed() []CheckedCycle {
	var out []CheckedCycle
	for _, c := range r.Cycles {
		if c.Confirm.Confirmed() {
			out = append(out, c)
		}
	}
	return out
}

// Check runs the whole DeadlockFuzzer pipeline: find potential cycles,
// then run one multi-cycle campaign that tries to create all of them.
// On a Phase I failure the partial report (with any observed deadlocks)
// is returned alongside the error.
func Check(prog func(*Ctx), opts CheckOptions) (*CheckReport, error) {
	fr, err := Find(prog, opts.Find)
	out := &CheckReport{Find: fr}
	if err != nil {
		return out, err
	}
	if opts.Confirm.Ranks == nil {
		opts.Confirm.Ranks = fr.Ranks()
	}
	multi := ConfirmAll(prog, fr.Cycles, opts.Confirm)
	for i, cyc := range fr.Cycles {
		out.Cycles = append(out.Cycles, CheckedCycle{Cycle: cyc, Confirm: multi.Reports[i]})
	}
	out.Executions = multi.Executions
	out.Unmatched = multi.Unmatched
	return out, nil
}

// Run executes prog once under the plain random scheduler (the paper's
// Algorithm 2) with the given seed.
func Run(prog func(*Ctx), seed int64) *Result {
	return sched.New(sched.Options{Seed: seed}).Run(prog)
}

// ImmuneReport is RunImmune's outcome.
type ImmuneReport struct {
	// Result is the execution's outcome.
	Result *Result
	// Deferred counts scheduling decisions that steered a thread away
	// from a recorded pattern.
	Deferred int
}

// RunImmune executes prog once under a Dimmunix-style avoidance
// scheduler (paper Section 6, Jula et al.): the recorded patterns —
// typically cycles previously confirmed by Confirm — are kept from
// recurring by never letting a second thread enter a pattern another
// thread occupies. Avoidance is advisory: when only pattern-entering
// threads can run, one runs, so the policy never livelocks.
func RunImmune(prog func(*Ctx), patterns []*Cycle, opts ConfirmOptions, seed int64) *ImmuneReport {
	pol := avoid.New(patterns, opts.fuzzerConfig())
	res := sched.New(sched.Options{Seed: seed, Policy: pol, MaxSteps: opts.MaxSteps}).Run(prog)
	return &ImmuneReport{Result: res, Deferred: pol.Deferred()}
}

// Program is a parsed CLF program.
type Program struct {
	prog *lang.Program
	out  io.Writer
}

// ParseCLF parses CLF source text; file is used in positions and labels.
func ParseCLF(file, src string) (*Program, error) {
	p, err := lang.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// WithOutput directs the program's print() statements to w. Every
// execution that reaches a print() writes its line: Find's observation
// attempts (including the observed re-run of a completing attempt),
// every Phase II run and every witness capture or replay. Lines from
// parallel workers arrive whole but in unspecified order. Without
// WithOutput, print() output is discarded.
func (p *Program) WithOutput(w io.Writer) *Program {
	p.out = w
	return p
}

// Body returns the program in the form Find/Confirm/Check accept.
// CLF runtime errors surface as panics carrying a positioned message;
// front-end errors were already rejected by ParseCLF. The program runs
// on the bytecode VM; TreeWalkBody selects the reference interpreter.
func (p *Program) Body() func(*Ctx) {
	return lang.NewInterp(p.prog, p.out).Main()
}

// TreeWalkBody returns the program body backed by the tree-walking
// reference interpreter instead of the bytecode VM. The two back ends
// are byte-identical (same events, results, reports — the vmdiff suite
// pins this); the walker exists as the differential baseline.
func (p *Program) TreeWalkBody() func(*Ctx) {
	return lang.NewInterp(p.prog, p.out).TreeWalk().Main()
}

// String identifies the program by file name.
func (p *Program) String() string {
	return fmt.Sprintf("clf program %s (%d functions)", p.prog.File, len(p.prog.Funcs))
}
