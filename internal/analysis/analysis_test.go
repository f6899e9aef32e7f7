package analysis_test

import (
	"errors"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/event"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
)

// inversion is the classic two-lock inversion with no timing skew: both
// completion and deadlock are common under the plain random scheduler,
// which is what the observation tests need.
func inversion(c *sched.Ctx) {
	o1 := c.New("Object", "inv:1")
	o2 := c.New("Object", "inv:2")
	t1 := c.Spawn("T1", nil, "inv:5", func(c *sched.Ctx) {
		c.Sync(o1, "inv:3", func() {
			c.Sync(o2, "inv:4", func() {})
		})
	})
	t2 := c.Spawn("T2", nil, "inv:6", func(c *sched.Ctx) {
		c.Sync(o2, "inv:3b", func() {
			c.Sync(o1, "inv:4b", func() {})
		})
	})
	c.Join(t1, "inv:7")
	c.Join(t2, "inv:7")
}

// certainDeadlock always deadlocks: latches force both threads to take
// their first lock before either tries its second.
func certainDeadlock(c *sched.Ctx) {
	o1 := c.New("Object", "cd:1")
	o2 := c.New("Object", "cd:2")
	l1 := c.NewLatch("cd:l1")
	l2 := c.NewLatch("cd:l2")
	t1 := c.Spawn("T1", nil, "cd:5", func(c *sched.Ctx) {
		c.Sync(o1, "cd:3", func() {
			c.Signal(l1, "cd:s1")
			c.Await(l2, "cd:a2")
			c.Sync(o2, "cd:4", func() {})
		})
	})
	t2 := c.Spawn("T2", nil, "cd:6", func(c *sched.Ctx) {
		c.Sync(o2, "cd:3b", func() {
			c.Signal(l2, "cd:s2")
			c.Await(l1, "cd:a1")
			c.Sync(o1, "cd:4b", func() {})
		})
	})
	c.Join(t1, "cd:7")
	c.Join(t2, "cd:7")
}

// TestPipelineSharesOneRun attaches all four stock analyses to one
// execution and checks they observed the same stream: the trace length,
// the stats total and the scheduler's own event count must agree, and
// the dependency recorder must have consumed the HB tracker's clocks.
func TestPipelineSharesOneRun(t *testing.T) {
	var p analysis.Pipeline
	tracker := p.HB()
	rec := p.LockDeps(tracker)
	tr := p.Trace()
	stats := p.Stats()
	res := p.Run(inversion, analysis.Exec{Seed: 1})
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if uint64(tr.Len()) != res.Events || stats.Events != res.Events {
		t.Errorf("stream sizes disagree: trace %d, stats %d, scheduler %d",
			tr.Len(), stats.Events, res.Events)
	}
	if stats.ByKind[event.KindAcquire] == 0 || stats.ByKind[event.KindRelease] == 0 {
		t.Errorf("stats missed acquires/releases: %+v", stats.ByKind)
	}
	var total uint64
	for _, n := range stats.ByKind {
		total += n
	}
	if total != stats.Events {
		t.Errorf("per-kind counts sum to %d of %d events", total, stats.Events)
	}
	deps := rec.Deps()
	if len(deps) == 0 {
		t.Fatal("recorder saw no dependencies")
	}
	for _, d := range deps {
		if d.VC == nil {
			t.Fatalf("dependency %s has no vector clock; recorder not wired to tracker", d)
		}
	}
}

// TestObserveSurfacesDeadlocks checks the satellite fix end to end: when
// observation attempts deadlock before one completes, the witnessed
// deadlocks are on the result instead of silently dropped, and Attempts
// counts every try.
func TestObserveSurfacesDeadlocks(t *testing.T) {
	cfg := predict.Config{K: 10}
	// Scan seeds for one where the first observation attempt deadlocks;
	// the inversion deadlocks often enough that one exists early.
	for seed := int64(0); seed < 64; seed++ {
		first := sched.New(sched.Options{Seed: seed}).Run(inversion)
		if first.Outcome != sched.Deadlock {
			continue
		}
		obs, err := analysis.ObserveMany(inversion, cfg, analysis.CampaignOptions{Runs: 1, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if obs.Attempts < 2 {
			t.Errorf("seed %d: completed in %d attempts, expected a deadlocked retry first", seed, obs.Attempts)
		}
		if len(obs.ObservedDeadlocks) == 0 {
			t.Fatalf("seed %d: deadlocking attempt was discarded", seed)
		}
		if obs.ObservedDeadlocks[0] == nil || len(obs.ObservedDeadlocks[0].Edges) == 0 {
			t.Errorf("seed %d: observed deadlock carries no cycle", seed)
		}
		if len(obs.Cycles) == 0 {
			t.Errorf("seed %d: completed observation predicted no cycles", seed)
		}
		return
	}
	t.Fatal("no seed under 64 deadlocked on its first run")
}

// TestObservePartialResultOnFailure checks the give-up path: a program
// that always deadlocks exhausts the attempt budget, but the partial
// observation still carries every witnessed deadlock.
func TestObservePartialResultOnFailure(t *testing.T) {
	obs, err := analysis.ObserveMany(certainDeadlock, predict.Config{K: 10}, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if !errors.Is(err, analysis.ErrNoCompletedRun) {
		t.Fatalf("err = %v", err)
	}
	if obs == nil {
		t.Fatal("no partial observation on failure")
	}
	if obs.Attempts != 100 {
		t.Errorf("attempts = %d, want the full budget of 100", obs.Attempts)
	}
	if len(obs.ObservedDeadlocks) != 100 {
		t.Errorf("observed %d deadlocks in 100 deadlocking attempts", len(obs.ObservedDeadlocks))
	}
	if len(obs.Cycles) != 0 || obs.Deps != 0 {
		t.Errorf("partial observation claims analysis results: %+v", obs)
	}
}
