package campaign

// Multi-cycle campaigns: one seed-sharded campaign that targets every
// candidate cycle of a program at once, instead of an independent
// Runs-seed campaign per cycle.
//
// The per-cycle path costs len(cycles) × Runs executions for Table 1.
// Most of that is redundant: a Phase II execution confirms a deadlock by
// reaching an actual deadlocked state, and that state can be matched
// against *every* candidate after the fact, not just the cycle the
// scheduler was biased toward. So a multi-cycle campaign runs ~Runs
// executions total, biases each one toward a single candidate —
// round-robin in campaign seed order, so the (target, scheduler seed)
// assignment is a pure function of the campaign seed — and credits every
// confirmed deadlock to every candidate it matches.
//
// The seed split is chosen so per-cycle results stay comparable with the
// per-cycle path: campaign seed s maps to target s % C and scheduler
// seed s / C. Cycle i's targeted runs therefore use scheduler seeds
// 0,1,2,… — exactly the executions a single-cycle campaign of the same
// size runs — so a CycleSummary's embedded Summary is *identical* to
// that of a one-cycle ConfirmCycles over the same per-target seed range
// (the equivalence tests pin this down). With C=1 the split is the
// identity, which is why one engine serves both shapes. Cross-credits
// are tracked separately so that identity is not disturbed.
//
// Everything runs through Run, so the parallel ≡ serial byte-identity
// guarantee carries over: results merge in ascending campaign-seed
// order at any Parallelism setting.

import (
	"sort"
	"sync/atomic"
	"time"

	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// CycleSummary is one candidate cycle's slice of a multi-cycle campaign.
type CycleSummary struct {
	// Summary aggregates only the runs biased toward this cycle; its
	// fields mean exactly what they mean for a single-cycle campaign
	// over the same scheduler seeds.
	Summary
	// CrossMatches counts runs biased toward *other* candidates whose
	// confirmed deadlock nevertheless matched this cycle. A cross-match
	// confirms the cycle as real just like a targeted reproduction —
	// the deadlock was reached, only while aiming elsewhere — but is
	// kept out of Reproduced so Probability stays the paper's targeted
	// reproduction probability.
	CrossMatches int
	// CrossExample is the first cross-matching witness in campaign seed
	// order (nil when CrossMatches is 0). CrossExampleSeed and
	// CrossExampleTarget record the scheduler seed and the candidate the
	// run was actually biased toward, so the cross-matching execution
	// can be re-run (meaningful only when CrossExample is non-nil).
	CrossExample       *sched.DeadlockInfo
	CrossExampleSeed   int64
	CrossExampleTarget int
}

// Confirmed reports whether any execution of the campaign — targeted or
// not — confirmed this cycle as a real deadlock.
func (c *CycleSummary) Confirmed() bool {
	return c.Reproduced > 0 || c.CrossMatches > 0
}

// Witness returns a deadlock witness for the cycle: a targeted
// reproduction if one exists, otherwise a cross-match, otherwise nil.
func (c *CycleSummary) Witness() *sched.DeadlockInfo {
	if c.Example != nil {
		return c.Example
	}
	return c.CrossExample
}

// MultiSummary is the merged outcome of one multi-cycle campaign.
type MultiSummary struct {
	// Cycles has one entry per candidate, in input order.
	Cycles []CycleSummary
	// Executions is the total number of executions consumed — at most
	// runs + len(cycles) - 1 (the round-robin split rounds the
	// per-target share up), or fewer when StopAfter ended the campaign
	// early.
	Executions int
	// Deadlocked counts executions that confirmed any real deadlock;
	// Unmatched counts confirmed deadlocks that matched no candidate
	// (novel deadlocks, found but not predicted).
	Deadlocked int
	Unmatched  int
	// Thrashes, Yields and Steps are totals across every execution.
	Thrashes int
	Yields   int
	Steps    int
}

// Confirmed returns the indexes of the confirmed candidates, in input
// order.
func (m *MultiSummary) Confirmed() []int {
	var out []int
	for i := range m.Cycles {
		if m.Cycles[i].Confirmed() {
			out = append(out, i)
		}
	}
	return out
}

// multiRun is one execution's outcome plus its multi-cycle bookkeeping,
// computed on the worker so the merge goroutine only aggregates.
type multiRun struct {
	target  int
	r       *fuzzer.RunResult
	matches []int // candidate indexes the confirmed deadlock matches
	wallNs  int64
	worker  int
}

// confirmOrder maps a round-robin slot to the candidate it targets:
// the identity without ranks, otherwise candidate indexes sorted by
// rank descending with ties broken by canonical cycle key ascending.
// Keys are unique within a deduplicated report, so the order — and
// every campaign built on it — is total and deterministic.
func confirmOrder(cycles []*igoodlock.Cycle, ranks []float64) []int {
	order := make([]int, len(cycles))
	for i := range order {
		order[i] = i
	}
	if ranks == nil {
		return order
	}
	if len(ranks) != len(cycles) {
		panic("campaign: Options.Ranks length does not match cycles")
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if ranks[ia] != ranks[ib] {
			return ranks[ia] > ranks[ib]
		}
		return cycles[ia].Key() < cycles[ib].Key()
	})
	return order
}

// ConfirmCycles runs one campaign of ~runs executions against all
// candidate cycles: campaign seed s runs the active checker biased
// toward the candidate in round-robin slot s % len(cycles) with
// scheduler seed s / len(cycles), and every confirmed deadlock is
// matched against every candidate and credited wherever it matches.
// Slots map to candidates in input order, or in rank order when
// Options.Ranks is set (see confirmOrder) — so a budget cut by
// StopAfter is spent on high-ranked candidates first, while summaries
// stay indexed by input order. Each candidate receives exactly
// ceil(runs / len(cycles)) targeted runs. StopAfter counts targeted
// reproductions (any candidate), in campaign seed order.
func ConfirmCycles(prog func(*sched.Ctx), cycles []*igoodlock.Cycle, cfg fuzzer.Config, runs, maxSteps int, opts Options) *MultiSummary {
	out := &MultiSummary{Cycles: make([]CycleSummary, len(cycles))}
	c := len(cycles)
	if c == 0 || runs <= 0 {
		return out
	}
	order := confirmOrder(cycles, opts.Ranks)
	perTarget := (runs + c - 1) / c
	var workerSeq atomic.Int32
	timed := opts.OnRun != nil
	setup := func() func(seed int) *multiRun {
		runner := fuzzer.NewRunner()
		worker := int(workerSeq.Add(1)) - 1
		return func(seed int) *multiRun {
			target := order[seed%c]
			m := &multiRun{target: target, worker: worker}
			if timed {
				start := time.Now()
				m.r = runner.Run(prog, cycles[target], cfg, int64(seed/c), maxSteps)
				m.wallNs = time.Since(start).Nanoseconds()
			} else {
				m.r = runner.Run(prog, cycles[target], cfg, int64(seed/c), maxSteps)
			}
			if m.r.Result.Outcome == sched.Deadlock {
				// The runner's key caches render each candidate's key
				// once per worker and this deadlock's once, instead of
				// len(cycles) times per confirmed deadlock.
				for i, cyc := range cycles {
					if runner.MatchesCycle(m.r.Result.Deadlock, cyc, cfg) {
						m.matches = append(m.matches, i)
					}
				}
			}
			return m
		}
	}
	out.Executions = RunWorkers(perTarget*c, opts, setup,
		func(m *multiRun) bool { return m.r.Reproduced },
		func(seed int, m *multiRun) {
			r := m.r
			cs := &out.Cycles[m.target]
			cs.Runs++
			cs.Thrashes += r.Stats.Thrashes
			cs.Yields += r.Stats.Yields
			cs.Steps += r.Result.Steps
			out.Thrashes += r.Stats.Thrashes
			out.Yields += r.Stats.Yields
			out.Steps += r.Result.Steps
			if opts.OnRun != nil {
				defer opts.OnRun(runRecord(int64(seed), int64(seed/c), m))
			}
			if r.Result.Outcome != sched.Deadlock {
				return
			}
			out.Deadlocked++
			cs.Deadlocked++
			if r.Reproduced {
				cs.Reproduced++
				if cs.Example == nil {
					cs.Example = r.Result.Deadlock
					cs.ExampleSeed = int64(seed / c)
				}
			}
			for _, i := range m.matches {
				if i == m.target {
					continue
				}
				cc := &out.Cycles[i]
				cc.CrossMatches++
				if cc.CrossExample == nil {
					cc.CrossExample = r.Result.Deadlock
					cc.CrossExampleSeed = int64(seed / c)
					cc.CrossExampleTarget = m.target
				}
			}
			if len(m.matches) == 0 {
				out.Unmatched++
			}
		})
	return out
}
