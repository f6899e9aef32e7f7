package avoid

import (
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// hotInversion deadlocks frequently under plain random scheduling: no
// timing skew at all.
func hotInversion(c *sched.Ctx) {
	a := c.New("Object", "av:1")
	b := c.New("Object", "av:2")
	body := func(l1, l2 *object.Obj) func(*sched.Ctx) {
		return func(c *sched.Ctx) {
			c.Sync(l1, "av:3", func() {
				c.Step("av:4")
				c.Sync(l2, "av:5", func() {})
			})
		}
	}
	t1 := c.Spawn("T1", nil, "av:6", body(a, b))
	t2 := c.Spawn("T2", nil, "av:7", body(b, a))
	c.Join(t1, "av:8")
	c.Join(t2, "av:8")
}

// patterns learns the program's cycles via Phase I.
func patterns(t *testing.T) []*igoodlock.Cycle {
	t.Helper()
	p1, err := analysis.ObserveMany(hotInversion, harness.DefaultVariant().Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Cycles) != 1 {
		t.Fatalf("cycles = %v", p1.Cycles)
	}
	return p1.Cycles
}

func TestAvoidanceSuppressesKnownDeadlock(t *testing.T) {
	pats := patterns(t)
	cfg := fuzzer.DefaultConfig()

	const n = 60
	plain, avoided := 0, 0
	var deferred int
	for seed := int64(0); seed < n; seed++ {
		if sched.New(sched.Options{Seed: seed}).Run(hotInversion).Outcome == sched.Deadlock {
			plain++
		}
		pol := New(pats, cfg)
		res := sched.New(sched.Options{Seed: seed, Policy: pol}).Run(hotInversion)
		if res.Outcome == sched.Deadlock {
			avoided++
		}
		if res.Outcome != sched.Completed && res.Outcome != sched.Deadlock {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
		deferred += pol.Deferred()
	}
	if plain < n/5 {
		t.Fatalf("plain random deadlocked only %d/%d; workload too cold for this test", plain, n)
	}
	if avoided != 0 {
		t.Errorf("avoidance still deadlocked %d/%d (plain: %d)", avoided, n, plain)
	}
	if deferred == 0 {
		t.Error("avoidance never deferred anything; it was not exercised")
	}
}

func TestAvoidanceIsAdvisory(t *testing.T) {
	// With only one runnable thread the policy must schedule it even if
	// it enters a pattern: progress beats immunity.
	pats := patterns(t)
	pol := New(pats, fuzzer.DefaultConfig())
	single := func(c *sched.Ctx) {
		a := c.New("Object", "av:1")
		b := c.New("Object", "av:2")
		c.Sync(a, "av:3", func() {
			c.Sync(b, "av:5", func() {})
		})
	}
	res := sched.New(sched.Options{Seed: 1, Policy: pol}).Run(single)
	if res.Outcome != sched.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

func TestAvoidanceLeavesOtherProgramsAlone(t *testing.T) {
	// Patterns from one program must not defer unrelated programs
	// (different abstractions): the policy degenerates to random.
	pats := patterns(t)
	other := func(c *sched.Ctx) {
		l := c.New("Object", "other:1")
		t1 := c.Spawn("w", nil, "other:2", func(c *sched.Ctx) {
			c.Sync(l, "other:3", func() { c.Step("other:4") })
		})
		c.Sync(l, "other:5", func() {})
		c.Join(t1, "other:6")
	}
	pol := New(pats, fuzzer.DefaultConfig())
	res := sched.New(sched.Options{Seed: 2, Policy: pol}).Run(other)
	if res.Outcome != sched.Completed || pol.Deferred() != 0 {
		t.Errorf("outcome %v, deferred %d", res.Outcome, pol.Deferred())
	}
}
