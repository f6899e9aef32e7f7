package campaign

import (
	"sort"

	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/sched"
)

// BlockingVerdict aggregates every run that got stuck with the same
// canonical blocked-state key (sched.BlockedInfo.Key — thread- and
// object-id free, so the same bug collapses across seeds).
type BlockingVerdict struct {
	// Key is the canonical classification key; Partial says whether it
	// names a partial (true) or total (false) deadlock.
	Key     string
	Partial bool
	// Runs counts the seeds that produced this verdict; FirstSeed is
	// the lowest.
	Runs      int
	FirstSeed int64
	// Example is the classification from FirstSeed's run.
	Example *sched.BlockedInfo
}

// BlockingSummary is the merged outcome of a blocking campaign: the
// program under the (optionally biased) random scheduler, one run per
// seed, runs classified by how they ended. Identical at every
// Parallelism setting.
type BlockingSummary struct {
	// Runs is the number of seeds executed.
	Runs int
	// CompletedRuns counts clean exits; DeadlockRuns counts lock-cycle
	// deadlocks (Outcome Deadlock — those still carry Result.Deadlock,
	// not a blocked classification); StepLimitRuns counts runs ended by
	// the step bound.
	CompletedRuns int
	DeadlockRuns  int
	StepLimitRuns int
	// BlockedRuns counts runs that ended with a provably stuck thread
	// set (a Stall, or a step-limit run whose stuck subset is provable);
	// PartialRuns/TotalRuns split it by verdict.
	BlockedRuns int
	PartialRuns int
	TotalRuns   int
	// Steps is the summed step count across all runs.
	Steps int
	// Verdicts lists the distinct blocked classifications, ordered by
	// Key ascending.
	Verdicts []*BlockingVerdict
}

// Blocking runs the program over seeds 0..runs-1 and classifies every
// run, aggregating stuck runs by canonical verdict key. A bias in
// (0,1] schedules under fuzzer.BlockingPolicy{P: bias} — starving
// completing operations to widen blocking windows — and 0 means the
// plain uniform scheduler. StopAfter counts runs with a blocked
// classification.
func Blocking(prog func(*sched.Ctx), runs, maxSteps int, bias float64, opts Options) *BlockingSummary {
	sum := &BlockingSummary{}
	byKey := map[string]*BlockingVerdict{}
	// keys renders each verdict's key into reused buffers, so only a
	// first-seen key allocates its string.
	var keys sched.BlockedKeyBuilder
	var pol sched.Policy
	if bias > 0 {
		pol = fuzzer.BlockingPolicy{P: bias}
	}
	sum.Runs = Run(runs, opts,
		func(seed int) *sched.Result {
			return sched.New(sched.Options{Seed: int64(seed), MaxSteps: maxSteps, Policy: pol}).Run(prog)
		},
		func(r *sched.Result) bool { return r.Blocked != nil },
		func(seed int, r *sched.Result) {
			sum.Steps += r.Steps
			switch r.Outcome {
			case sched.Completed:
				sum.CompletedRuns++
			case sched.Deadlock:
				sum.DeadlockRuns++
			case sched.StepLimit:
				sum.StepLimitRuns++
			}
			if r.Blocked == nil {
				return
			}
			sum.BlockedRuns++
			if r.Blocked.Partial {
				sum.PartialRuns++
			} else {
				sum.TotalRuns++
			}
			key := keys.Key(r.Blocked)
			v := byKey[string(key)]
			if v == nil {
				v = &BlockingVerdict{
					Key:       string(key),
					Partial:   r.Blocked.Partial,
					FirstSeed: int64(seed),
					Example:   r.Blocked,
				}
				byKey[v.Key] = v
				sum.Verdicts = append(sum.Verdicts, v)
			}
			v.Runs++
		})
	sort.Slice(sum.Verdicts, func(i, j int) bool { return sum.Verdicts[i].Key < sum.Verdicts[j].Key })
	return sum
}
