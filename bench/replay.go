package main

import (
	"math"
	"time"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
)

// maxReplaysPerCheck bounds how many of one check's Phase II executions
// are replayed for the policy cost.
const maxReplaysPerCheck = 16

// replayReps is how many times each observation replay runs; the
// fastest repetition counts, which drops scheduling noise from the
// differences the observer costs are taken from.
const replayReps = 3

// policyCosts is what replaying Phase II executions under a timing
// wrapper measured.
type policyCosts struct {
	nsPerDecision      float64
	decisions, replays int
}

// timedPolicy wraps the active checker's policy and times each
// scheduling decision.
type timedPolicy struct {
	p  *fuzzer.Policy
	ns int64
	n  int
}

func (tp *timedPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	t0 := time.Now()
	tid := tp.p.Next(s, enabled)
	tp.ns += time.Since(t0).Nanoseconds()
	tp.n++
	return tid
}

// policyCost replays the first Phase II executions of every case with
// a *fuzzer.Policy wrapped in timedPolicy. Observers and policies never
// change a seeded execution, so each replay must repeat its campaign
// record's steps and outcome; one that does not fails the program.
func policyCost(cases []*replayCase) policyCosts {
	var pc policyCosts
	var ns int64
	for _, c := range cases {
		cfg := fuzzerConfig(c.prog.spec.confirm)
		maxSteps := c.prog.spec.confirm.MaxSteps
		for _, rec := range c.records[:min(len(c.records), maxReplaysPerCheck)] {
			tp := &timedPolicy{p: fuzzer.New(c.cycles[rec.Target], cfg)}
			res := sched.New(sched.Options{Seed: rec.SchedSeed, MaxSteps: maxSteps, Policy: tp}).Run(c.body)
			if res.Steps != rec.Steps || res.Outcome.String() != rec.Outcome {
				c.prog.fail("policy replay of campaign seed %d: %d steps, %s; the campaign recorded %d steps, %s",
					rec.Seed, res.Steps, res.Outcome, rec.Steps, rec.Outcome)
			}
			ns += tp.ns
			pc.decisions += tp.n
			pc.replays++
		}
	}
	if pc.decisions > 0 {
		pc.nsPerDecision = float64(ns)/float64(pc.decisions) - timerCost()
	}
	return pc
}

// timerCost is the mean reading of a timed empty interval, the part of
// every timedPolicy reading that is the clock's own.
func timerCost() float64 {
	const n = 100000
	var total time.Duration
	for range n {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / n
}

// observerCosts are the per-event costs of the observers an observation
// run carries, and the cost of merging a check's relations.
type observerCosts struct {
	hbNs, locksetNs, historyNs, mergeUs float64
}

// Observer levels, each attaching one more observer than the last: the
// bare run has no observers and no policy.
const (
	bare = iota
	withHB
	withLockset
	withHistory
	levels
)

// observerCost replays the completing seed of every completed
// observation run of every case at each observer level and takes each
// observer's cost per event as the difference between adjacent levels.
// The lockset level's relations are then merged again, in run order, to
// time the merge. A replay whose steps differ from the observation run's
// fails the program.
func observerCost(cases []*replayCase) observerCosts {
	var oc observerCosts
	var total [levels]time.Duration
	var events uint64
	merges := 0
	var mergeTime time.Duration
	for _, c := range cases {
		f := c.prog.spec.find
		type relation struct {
			run  int
			deps []*lockset.Dep
		}
		var relations []relation
		for i, rs := range c.perRun {
			if !rs.Completed {
				continue
			}
			events += rs.Events
			for level := range levels {
				best := time.Duration(math.MaxInt64)
				for rep := range replayReps {
					d, steps, deps := observeAt(c.body, rs.Seed, f.MaxSteps, level)
					best = min(best, d)
					if steps != rs.Steps {
						c.prog.fail("observer replay of seed %d: %d steps, the observation ran %d", rs.Seed, steps, rs.Steps)
					}
					if level == withLockset && rep == 0 {
						relations = append(relations, relation{i, deps})
					}
				}
				total[level] += best
			}
		}
		if len(relations) == 0 {
			continue
		}
		best := time.Duration(math.MaxInt64)
		for range replayReps {
			t0 := time.Now()
			m := lockset.NewMerger(f.Abstraction, f.K)
			for _, r := range relations {
				m.Add(r.run, r.deps)
			}
			best = min(best, time.Since(t0))
		}
		mergeTime += best
		merges++
	}
	if events > 0 {
		per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(events) }
		oc.hbNs = per(total[withHB] - total[bare])
		oc.locksetNs = per(total[withLockset] - total[withHB])
		oc.historyNs = per(total[withHistory] - total[withLockset])
	}
	if merges > 0 {
		oc.mergeUs = float64(mergeTime.Nanoseconds()) / 1e3 / float64(merges)
	}
	return oc
}

// observeAt runs one observation execution with the observers of the
// given level and returns its wall time, steps and, at the lockset
// level, its dependency relation.
func observeAt(body func(*sched.Ctx), seed int64, maxSteps, level int) (time.Duration, int, []*lockset.Dep) {
	var p analysis.Pipeline
	var rec *lockset.Recorder
	if level >= withHB {
		tracker := p.HB()
		if level >= withLockset {
			rec = p.LockDeps(tracker)
		}
		if level >= withHistory {
			analysis.Attach(&p, predict.NewHistory())
		}
	}
	t0 := time.Now()
	res := p.Run(body, analysis.Exec{Seed: seed, MaxSteps: maxSteps})
	d := time.Since(t0)
	if level != withLockset {
		return d, res.Steps, nil
	}
	return d, res.Steps, rec.Deps()
}
