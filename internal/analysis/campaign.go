package analysis

import (
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
)

// CampaignOptions sizes a multi-seed Phase I observation campaign.
type CampaignOptions struct {
	// Runs is the number of observation executions; 0 and 1 both mean a
	// single run.
	Runs int
	// Parallelism is the number of worker goroutines running
	// observations: 0 means one per available core, 1 means serial on
	// the calling goroutine. The merged observation is identical at
	// every setting.
	Parallelism int
	// ClosureParallelism is the worker count for the sharded iGoodlock
	// closure over the merged relation (see igoodlock.FindParallel); 0
	// means one per available core. Cycle reports are byte-identical at
	// every setting.
	ClosureParallelism int
	// Seed is the base scheduler seed. Run i retries seeds
	// Seed+i*100 .. Seed+i*100+99, so the runs' retry ranges never
	// overlap and run 0 retries from Seed itself.
	Seed int64
	// MaxSteps bounds each execution; 0 means no bound.
	MaxSteps int
	// Finder selects the Phase I candidate finder run over the merged
	// relation (and over each run's own relation for the saturation
	// stats); nil means the default iGoodlock closure. Observation
	// executions are identical for every finder.
	Finder predict.CandidateFinder
}

// RunStats describes one observation run of a campaign, in run order.
type RunStats struct {
	// Seed is the run's completing seed (the last attempted one if the
	// run never completed); Attempts counts the seeds it tried.
	Seed     int64
	Attempts int
	// Completed reports whether any attempt completed; the remaining
	// fields are zero when it is false.
	Completed bool
	// Deps is the size of the run's own dependency relation; Steps and
	// Events describe the completing execution.
	Deps   int
	Steps  int
	Events uint64
	// Cycles counts the plausible cycles iGoodlock finds in this run's
	// relation alone; NewCycles counts those no earlier run reported.
	// The running sum of NewCycles over runs is the campaign's
	// saturation curve: when it flattens, further observation runs are
	// not discovering new candidates.
	Cycles    int
	NewCycles int
}

// CampaignObservation is the merged outcome of a multi-seed observation
// campaign. The embedded Observation describes the campaign as if it
// were one big observation: Cycles and FalsePositives come from the
// closure of the merged relation, Deps is the merged relation's size,
// Steps/Events/Stats/Attempts are totals across runs, and Seed is the
// first completed run's completing seed. With Runs=1 it is exactly that
// run's own observation.
type CampaignObservation struct {
	Observation
	// Runs is the number of observation runs executed; Completed counts
	// those whose retry loop found a completing seed.
	Runs      int
	Completed int
	// RawDeps is the total relation size across runs before the merge;
	// compare with Deps (the merged size) for the dedup ratio.
	RawDeps int
	// PerRun holds one entry per run, in run order.
	PerRun []RunStats
}

// campaignRun is one run's outcome plus the per-run finder results the
// saturation stats need. Per-run finder passes execute on the campaign
// workers; only the key set travels to the merge.
type campaignRun struct {
	runOutcome
	cycles    int
	cycleKeys []string
}

// ObserveMany runs a multi-seed Phase I observation campaign: opts.Runs
// observation executions (each with its own retry loop over seeds; see
// observeRun) across opts.Parallelism pooled workers, their dependency
// relations folded into one merged relation in run order, and a single
// finder pass (sharded per opts.ClosureParallelism when the finder
// supports it) plus happens-before filter over the merge.
//
// The campaign engine's seed-order merge makes the result deterministic:
// for fixed options, the merged observation is identical at every
// Parallelism and ClosureParallelism. Merging relations before the
// finder pass — rather than uniting per-run reports — lets chains mix
// dependencies observed in different runs, so the merged candidate set
// is a superset of every run's own (per-run counts are still reported
// in PerRun for the saturation curve).
//
// ErrNoCompletedRun is returned only when no run completes; the partial
// campaign still carries witnessed deadlocks and per-run stats.
func ObserveMany(prog func(*sched.Ctx), cfg predict.Config, opts CampaignOptions) (*CampaignObservation, error) {
	co, _, err := observeMany(prog, cfg, opts, observeRun)
	return co, err
}

// observeMany is ObserveMany with the observation-run loop as a
// parameter, also returning the merged observation the finder read.
func observeMany(prog func(*sched.Ctx), cfg predict.Config, opts CampaignOptions, observe observeFunc) (*CampaignObservation, *predict.Observation, error) {
	finder := opts.Finder
	if finder == nil {
		finder = predict.Default()
	}
	co, pobs, err := observeCampaign(prog, cfg, opts, finder, finder.Caps().NeedsHistory, observe)
	if err != nil {
		return co, pobs, err
	}
	cfgMerged := cfg
	cfgMerged.Parallelism = opts.ClosureParallelism
	co.Candidates, co.Cycles, co.FalsePositives = partitionCandidates(finder.Find(pobs, cfgMerged))
	return co, pobs, nil
}

// ObserveRelation runs the observation campaign and returns the merged
// relation — with every run's synchronization history — *without* a
// final finder pass. Bake-offs use it to observe a program once and run
// every registered finder over the same merged observation; the
// returned campaign carries the per-run stats (saturation computed with
// opts.Finder) but empty Candidates/Cycles/FalsePositives.
func ObserveRelation(prog func(*sched.Ctx), cfg predict.Config, opts CampaignOptions) (*CampaignObservation, *predict.Observation, error) {
	finder := opts.Finder
	if finder == nil {
		finder = predict.Default()
	}
	return observeCampaign(prog, cfg, opts, finder, true, observeRun)
}

// observeCampaign is the shared campaign body: observation runs,
// per-run saturation stats via finder, and the run-order relation
// merge. withHistory records each run's synchronization history on the
// returned predict.Observation (keyed by run index, matching Dep.Run).
// observe executes each observation run (observeRun outside tests).
func observeCampaign(prog func(*sched.Ctx), cfg predict.Config, opts CampaignOptions, finder predict.CandidateFinder, withHistory bool, observe observeFunc) (*CampaignObservation, *predict.Observation, error) {
	runs := opts.Runs
	if runs <= 0 {
		runs = 1
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	cfgRun := cfg
	cfgRun.Parallelism = 1 // single-run relations close serially

	co := &CampaignObservation{Runs: runs}
	co.PerRun = make([]RunStats, 0, runs)
	merger := lockset.NewMerger(cfg.Abstraction, cfg.K)
	seenKeys := make(map[string]bool)
	stats := &Stats{}
	var histories map[int]*predict.History
	if withHistory {
		histories = make(map[int]*predict.History, runs)
	}

	campaign.RunWorkers(runs, campaign.Options{Parallelism: opts.Parallelism},
		func() func(int) campaignRun {
			// One scheduler pool per worker, shared by its runs and
			// their retries.
			pool := sched.NewPool()
			return func(i int) campaignRun {
				cr := campaignRun{
					runOutcome: observe(pool, prog,
						opts.Seed+int64(i)*maxObserveAttempts, opts.MaxSteps, withHistory),
				}
				if !cr.completed {
					return cr
				}
				// The run's own finder pass, for the saturation stats.
				// Serial: single-run relations are small, and the
				// campaign already runs these on parallel workers.
				runObs := &predict.Observation{Deps: cr.deps}
				if cr.hist != nil {
					runObs.Histories = map[int]*predict.History{0: cr.hist}
				}
				plausible, _, _ := partitionCandidates(finder.Find(runObs, cfgRun))
				cr.cycles = len(plausible)
				cr.cycleKeys = make([]string, len(plausible))
				for k, c := range plausible {
					cr.cycleKeys[k] = c.Cycle.Key()
				}
				return cr
			}
		},
		nil,
		func(i int, cr campaignRun) {
			rs := RunStats{
				Seed:      cr.seed,
				Attempts:  cr.attempts,
				Completed: cr.completed,
				Cycles:    cr.cycles,
			}
			co.Attempts += cr.attempts
			co.ObservedDeadlocks = append(co.ObservedDeadlocks, cr.deadlocks...)
			if cr.completed {
				if co.Completed == 0 {
					co.Seed = cr.seed
				}
				co.Completed++
				rs.Deps = len(cr.deps)
				rs.Steps = cr.steps
				rs.Events = cr.events
				co.Steps += cr.steps
				co.Events += cr.events
				stats.Events += cr.stats.Events
				for k, n := range cr.stats.ByKind {
					stats.ByKind[k] += n
				}
				for _, key := range cr.cycleKeys {
					if !seenKeys[key] {
						seenKeys[key] = true
						rs.NewCycles++
					}
				}
				merger.Add(i, cr.deps)
				if histories != nil && cr.hist != nil {
					histories[i] = cr.hist
				}
			} else if co.Completed == 0 {
				co.Seed = cr.seed // placeholder until a run completes
			}
			co.PerRun = append(co.PerRun, rs)
		})

	if co.Completed == 0 {
		return co, nil, ErrNoCompletedRun
	}
	co.Stats = stats
	co.RawDeps = merger.Raw()
	co.Deps = merger.Merged()
	return co, &predict.Observation{Deps: merger.Deps(), Histories: histories}, nil
}
