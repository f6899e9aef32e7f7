package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
)

// Options sizes and bounds one campaign.
type Options struct {
	// Parallelism is the number of worker goroutines running seeded
	// executions: 0 means one per available core (GOMAXPROCS), 1 means
	// serial on the calling goroutine. The merged results are identical
	// at every setting.
	Parallelism int
	// StopAfter, when positive, ends the campaign once that many hits
	// (as judged by the run's hit predicate, e.g. "reproduced the
	// target cycle") have been consumed in seed order. The campaign
	// then reports how many seeds actually contributed.
	StopAfter int
	// OnRun, when non-nil, receives one observability record per
	// contributing execution of a ConfirmCycles campaign, in strict seed
	// order on the consuming goroutine — the journal/metrics hook.
	// Setting it turns on per-run wall-time measurement; leaving it nil
	// keeps the engine's hot path untouched. Baseline campaigns do not
	// report.
	OnRun func(*obs.RunRecord)
	// Ranks, when non-nil, orders ConfirmCycles' round-robin targeting
	// by candidate rank: the seed budget is spent on higher-ranked
	// cycles first, ties breaking by canonical cycle key ascending so
	// the order — and therefore the whole report — stays deterministic
	// at every Parallelism. It must be parallel to the cycles slice
	// (ConfirmCycles panics otherwise); nil preserves input order.
	// Strictly decreasing ranks are the identity order, so default
	// finder reports are unchanged by ranking. Other campaign kinds
	// ignore it.
	Ranks []float64
}

// workers resolves Parallelism against the machine and the campaign
// size.
func (o Options) workers(runs int) int {
	n := o.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > runs {
		n = runs
	}
	return n
}

// Run executes exec(seed) for seeds 0..runs-1 and feeds each result to
// consume in strict ascending seed order, exactly as a serial loop
// would. hit classifies a result for StopAfter (nil means nothing is a
// hit). Run returns the number of seeds consumed: runs itself, or less
// when StopAfter ended the campaign early.
//
// exec may be called from multiple goroutines concurrently; consume and
// hit are always called from the caller's goroutine, one seed at a
// time.
func Run[T any](runs int, opts Options, exec func(seed int) T, hit func(T) bool, consume func(seed int, v T)) int {
	return RunWorkers(runs, opts, func() func(seed int) T { return exec }, hit, consume)
}

// RunWorkers is Run for executions with per-worker state: setup runs
// once on each worker goroutine (once on the calling goroutine for the
// serial path) and returns the exec that worker uses for all its seeds.
// Campaigns use it to give each worker its own scheduler pool and
// policy shell, so pooled state is reused across seeds but never shared
// across goroutines. The seed-order merge is unchanged, so results are
// identical to Run with stateless exec.
func RunWorkers[T any](runs int, opts Options, setup func() func(seed int) T, hit func(T) bool, consume func(seed int, v T)) int {
	if runs <= 0 {
		return 0
	}
	if opts.workers(runs) <= 1 {
		return runSerial(runs, opts, setup(), hit, consume)
	}
	return runParallel(runs, opts, setup, hit, consume)
}

// runSerial is the Parallelism=1 path: the plain loop the engine
// replaced, kept as both the degenerate case and the reference the
// determinism tests compare against.
func runSerial[T any](runs int, opts Options, exec func(seed int) T, hit func(T) bool, consume func(seed int, v T)) int {
	hits := 0
	for seed := 0; seed < runs; seed++ {
		v := exec(seed)
		consume(seed, v)
		if hit != nil && hit(v) {
			hits++
			if opts.StopAfter > 0 && hits >= opts.StopAfter {
				return seed + 1
			}
		}
	}
	return runs
}

// runParallel shards seeds across a worker pool. Workers claim seeds
// from an atomic counter and ship (seed, result) pairs to the caller's
// goroutine, which reorders them into ascending seed order before
// consuming — the reorder buffer holds at most one in-flight result per
// worker.
func runParallel[T any](runs int, opts Options, setup func() func(seed int) T, hit func(T) bool, consume func(seed int, v T)) int {
	type item struct {
		seed int
		v    T
	}
	workers := opts.workers(runs)
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	results := make(chan item, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := setup()
			for !stop.Load() {
				seed := int(next.Add(1)) - 1
				if seed >= runs {
					return
				}
				results <- item{seed, exec(seed)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]T, workers)
	consumed, hits := 0, 0
	stopped := false
	for it := range results {
		if stopped {
			continue // drain speculative work past the stop point
		}
		pending[it.seed] = it.v
		for {
			v, ok := pending[consumed]
			if !ok {
				break
			}
			delete(pending, consumed)
			consume(consumed, v)
			consumed++
			if hit != nil && hit(v) {
				hits++
				if opts.StopAfter > 0 && hits >= opts.StopAfter {
					stopped = true
					stop.Store(true)
					break
				}
			}
		}
	}
	return consumed
}

// Summary is the merged outcome of a Phase II reproduction campaign:
// the active checker run once per seed against one target cycle. It is
// the per-cycle core of CycleSummary, and so of the public
// ConfirmReport.
type Summary struct {
	// Runs is the number of seeds that contributed (all of them unless
	// StopAfter ended the campaign early).
	Runs int
	// Deadlocked counts runs that confirmed any real deadlock;
	// Reproduced counts those whose deadlock matched the target cycle.
	Deadlocked int
	Reproduced int
	// Thrashes, Yields and Steps are totals across contributing runs.
	Thrashes int
	Yields   int
	Steps    int
	// Example is the witness deadlock of the first reproducing seed (in
	// seed order; nil if none reproduced), and ExampleSeed the scheduler
	// seed of that run — enough, with the program and config, to
	// re-execute and capture the witness. Meaningful only when Example
	// is non-nil.
	Example     *sched.DeadlockInfo
	ExampleSeed int64
}

// Probability returns the empirical reproduction probability, the
// paper's Table 1 column 9.
func (s *Summary) Probability() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Reproduced) / float64(s.Runs)
}

// AvgThrashes returns the mean thrash count per contributing run, the
// paper's column 10.
func (s *Summary) AvgThrashes() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Thrashes) / float64(s.Runs)
}

// AvgSteps returns the mean scheduler steps per contributing run (the
// deterministic runtime proxy).
func (s *Summary) AvgSteps() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Steps) / float64(s.Runs)
}

// runRecord assembles the OnRun record for one multi-cycle execution.
func runRecord(seed, schedSeed int64, m *multiRun) *obs.RunRecord {
	r := m.r
	return &obs.RunRecord{
		Seed:       seed,
		Target:     m.target,
		SchedSeed:  schedSeed,
		Outcome:    r.Result.Outcome.String(),
		Reproduced: r.Reproduced,
		Steps:      r.Result.Steps,
		Acquires:   r.Result.Acquires,
		Events:     r.Result.Events,
		Pauses:     r.Stats.Pauses,
		Thrashes:   r.Stats.Thrashes,
		Yields:     r.Stats.Yields,
		Evictions:  r.Stats.Evictions,
		WallNs:     m.wallNs,
		Worker:     m.worker,
	}
}

// BaselineSummary is the merged outcome of an uninstrumented control
// campaign: the program under the plain random scheduler, one run per
// seed, no biasing.
type BaselineSummary struct {
	Runs       int
	Deadlocked int
	Steps      int
}

// AvgSteps returns the mean steps per baseline run.
func (b *BaselineSummary) AvgSteps() float64 {
	if b.Runs == 0 {
		return 0
	}
	return float64(b.Steps) / float64(b.Runs)
}

// Baseline runs the plain random scheduler over seeds 0..runs-1.
// StopAfter counts deadlocked runs.
func Baseline(prog func(*sched.Ctx), runs, maxSteps int, opts Options) *BaselineSummary {
	sum := &BaselineSummary{}
	sum.Runs = RunWorkers(runs, opts,
		func() func(seed int) *sched.Result {
			pool := sched.NewPool()
			return func(seed int) *sched.Result {
				return pool.Run(sched.Options{Seed: int64(seed), MaxSteps: maxSteps}, prog)
			}
		},
		func(r *sched.Result) bool { return r.Outcome == sched.Deadlock },
		func(_ int, r *sched.Result) {
			if r.Outcome == sched.Deadlock {
				sum.Deadlocked++
			}
			sum.Steps += r.Steps
		})
	return sum
}
