package dlfuzz_test

import (
	"bytes"
	"strings"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/workloads"
)

// fig1 on the public API.
func fig1(c *dlfuzz.Ctx) {
	o1 := c.New("Object", "Fig1:22")
	o2 := c.New("Object", "Fig1:23")
	run := func(l1, l2 *dlfuzz.Obj, delay int) func(*dlfuzz.Ctx) {
		return func(c *dlfuzz.Ctx) {
			c.Work(delay, "Fig1:10")
			c.Sync(l1, "Fig1:15", func() {
				c.Sync(l2, "Fig1:16", func() {})
			})
		}
	}
	t1 := c.Spawn("T1", nil, "Fig1:25", run(o1, o2, 40))
	t2 := c.Spawn("T2", nil, "Fig1:26", run(o2, o1, 0))
	c.Join(t1, "Fig1:28")
	c.Join(t2, "Fig1:28")
}

func TestFindConfirmPipeline(t *testing.T) {
	find, err := dlfuzz.Find(fig1, dlfuzz.DefaultFindOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(find.Cycles) != 1 || len(find.FalsePositives) != 0 {
		t.Fatalf("cycles=%d fps=%d", len(find.Cycles), len(find.FalsePositives))
	}
	if find.Deps != 2 {
		t.Errorf("deps = %d", find.Deps)
	}

	opts := dlfuzz.DefaultConfirmOptions()
	opts.Runs = 25
	rep := dlfuzz.Confirm(fig1, find.Cycles[0], opts)
	if !rep.Confirmed() {
		t.Fatal("cycle not confirmed")
	}
	if rep.Probability() < 0.95 {
		t.Errorf("probability = %v", rep.Probability())
	}
	if rep.Example == nil || len(rep.Example.Edges) != 2 {
		t.Errorf("witness = %v", rep.Example)
	}
}

func TestCheckAggregates(t *testing.T) {
	opts := dlfuzz.DefaultCheckOptions()
	opts.Confirm.Runs = 10
	rep, err := dlfuzz.Check(fig1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cycles) != 1 || len(rep.Confirmed()) != 1 {
		t.Fatalf("cycles=%d confirmed=%d", len(rep.Cycles), len(rep.Confirmed()))
	}
	if rep.Executions == 0 || rep.Executions > opts.Confirm.Runs+len(rep.Cycles)-1 {
		t.Errorf("executions = %d, want 1..%d", rep.Executions, opts.Confirm.Runs+len(rep.Cycles)-1)
	}
}

// TestCheckSharesBudgetAcrossCycles pins the acceptance criterion on the
// Collections lists workload: Check's single multi-cycle campaign stays
// within Runs + cycles - 1 total Phase II executions (the per-cycle path
// paid cycles × Runs) while still confirming every cycle the per-cycle
// path confirms.
func TestCheckSharesBudgetAcrossCycles(t *testing.T) {
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Fatal("unknown workload lists")
	}
	opts := dlfuzz.DefaultCheckOptions()
	opts.Confirm.Runs = 40
	rep, err := dlfuzz.Check(w.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cycles) < 2 {
		t.Fatalf("lists reported %d cycles; the budget test needs several", len(rep.Cycles))
	}
	if rep.Executions > opts.Confirm.Runs+len(rep.Cycles)-1 {
		t.Errorf("executions = %d for %d cycles, want ≤ Runs+cycles-1 = %d",
			rep.Executions, len(rep.Cycles), opts.Confirm.Runs+len(rep.Cycles)-1)
	}
	for _, c := range rep.Cycles {
		legacy := dlfuzz.Confirm(w.Prog, c.Cycle, opts.Confirm)
		if legacy.Confirmed() && !c.Confirm.Confirmed() {
			t.Errorf("cycle %s: per-cycle path confirms (%d/%d) but Check does not (%+v)",
				c.Cycle, legacy.Reproduced, legacy.Runs, c.Confirm.CycleSummary)
		}
	}
}

func TestRunPlainRandom(t *testing.T) {
	res := dlfuzz.Run(fig1, 3)
	if res.Outcome != dlfuzz.Completed && res.Outcome != dlfuzz.Deadlock {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// Determinism through the facade.
	if again := dlfuzz.Run(fig1, 3); again.Outcome != res.Outcome || again.Steps != res.Steps {
		t.Error("Run not deterministic per seed")
	}
}

func TestParseCLFAndCheck(t *testing.T) {
	src := `
		fn worker(a, b, d) {
			work(d);
			sync (a) { sync (b) { } }
		}
		fn main() {
			var x = new Object;
			var y = new Object;
			var t1 = spawn worker(x, y, 30);
			var t2 = spawn worker(y, x, 0);
			join t1;
			join t2;
			print("finished");
		}`
	var out bytes.Buffer
	prog, err := dlfuzz.ParseCLF("api.clf", src)
	if err != nil {
		t.Fatal(err)
	}
	prog.WithOutput(&out)

	opts := dlfuzz.DefaultCheckOptions()
	opts.Confirm.Runs = 10
	rep, err := dlfuzz.Check(prog.Body(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Confirmed()) != 1 {
		t.Fatalf("confirmed = %d", len(rep.Confirmed()))
	}
	if !strings.Contains(out.String(), "finished") {
		t.Errorf("print output = %q (the observation run should have completed)", out.String())
	}
	if !strings.Contains(prog.String(), "api.clf") {
		t.Errorf("String() = %q", prog.String())
	}
}

func TestParseCLFRejectsBadSource(t *testing.T) {
	if _, err := dlfuzz.ParseCLF("bad.clf", "fn main() {"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := dlfuzz.ParseCLF("bad.clf", "fn f() {}"); err == nil {
		t.Error("expected resolve error (no main)")
	}
}

func TestFindOnDeadlockFreeProgram(t *testing.T) {
	clean := func(c *dlfuzz.Ctx) {
		a := c.New("Object", "c:1")
		b := c.New("Object", "c:2")
		t1 := c.Spawn("w", nil, "c:3", func(c *dlfuzz.Ctx) {
			c.Sync(a, "c:4", func() { c.Sync(b, "c:5", func() {}) })
		})
		c.Sync(a, "c:6", func() { c.Sync(b, "c:7", func() {}) })
		c.Join(t1, "c:8")
	}
	find, err := dlfuzz.Find(clean, dlfuzz.DefaultFindOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(find.Cycles) != 0 {
		t.Errorf("cycles = %v", find.Cycles)
	}
	// A negative abstraction depth is an error, not a panic inside the
	// abstraction.
	opts := dlfuzz.DefaultFindOptions()
	opts.K = -1
	if _, err := dlfuzz.Find(clean, opts); err == nil {
		t.Error("Find accepted K = -1")
	}
}

func TestMaxCycleLenBudget(t *testing.T) {
	// Three-philosopher cycle is invisible at MaxCycleLen 2.
	philosophers := func(c *dlfuzz.Ctx) {
		f1 := c.New("Fork", "p:1")
		f2 := c.New("Fork", "p:2")
		f3 := c.New("Fork", "p:3")
		eat := func(l, r *dlfuzz.Obj, d int) func(*dlfuzz.Ctx) {
			return func(c *dlfuzz.Ctx) {
				c.Work(d, "p:4")
				c.Sync(l, "p:5", func() { c.Sync(r, "p:6", func() {}) })
			}
		}
		t1 := c.Spawn("p1", nil, "p:7", eat(f1, f2, 9))
		t2 := c.Spawn("p2", nil, "p:8", eat(f2, f3, 4))
		t3 := c.Spawn("p3", nil, "p:9", eat(f3, f1, 1))
		c.Join(t1, "p:10")
		c.Join(t2, "p:10")
		c.Join(t3, "p:10")
	}
	opts := dlfuzz.DefaultFindOptions()
	full, err := dlfuzz.Find(philosophers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Cycles) != 1 || full.Cycles[0].Len() != 3 {
		t.Fatalf("full cycles = %v", full.Cycles)
	}
	opts.MaxCycleLen = 2
	capped, err := dlfuzz.Find(philosophers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Cycles) != 0 {
		t.Errorf("capped cycles = %v", capped.Cycles)
	}
}

func TestRunImmuneSuppressesConfirmedDeadlock(t *testing.T) {
	// Confirm the Figure 1 deadlock, then run with immunity to its
	// pattern: the deadlock must not recur even on seeds that would
	// otherwise produce it.
	hot := func(c *dlfuzz.Ctx) {
		o1 := c.New("Object", "im:1")
		o2 := c.New("Object", "im:2")
		run := func(l1, l2 *dlfuzz.Obj) func(*dlfuzz.Ctx) {
			return func(c *dlfuzz.Ctx) {
				c.Sync(l1, "im:3", func() {
					c.Sync(l2, "im:4", func() {})
				})
			}
		}
		t1 := c.Spawn("T1", nil, "im:5", run(o1, o2))
		t2 := c.Spawn("T2", nil, "im:6", run(o2, o1))
		c.Join(t1, "im:7")
		c.Join(t2, "im:7")
	}
	find, err := dlfuzz.Find(hot, dlfuzz.DefaultFindOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(find.Cycles) != 1 {
		t.Fatalf("cycles = %d", len(find.Cycles))
	}
	opts := dlfuzz.DefaultConfirmOptions()
	opts.Runs = 20
	if !dlfuzz.Confirm(hot, find.Cycles[0], opts).Confirmed() {
		t.Fatal("cycle not confirmed")
	}
	plain, immune, deferred := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		if dlfuzz.Run(hot, seed).Outcome == dlfuzz.Deadlock {
			plain++
		}
		rep := dlfuzz.RunImmune(hot, find.Cycles, opts, seed)
		if rep.Result.Outcome == dlfuzz.Deadlock {
			immune++
		}
		deferred += rep.Deferred
	}
	if plain == 0 {
		t.Fatal("hot inversion never deadlocked under plain random")
	}
	if immune != 0 {
		t.Errorf("immune runs deadlocked %d/40 (plain %d/40)", immune, plain)
	}
	if deferred == 0 {
		t.Error("immunity never deferred a decision")
	}
}

// TestFindCampaignFindsAtLeastSingleRun pins the multi-seed Phase I
// acceptance bar on the two dependency-heavy workloads: an 8-run
// campaign must predict (and Check must confirm) at least as many
// cycles as a single observation run, and the report must carry the
// campaign's dedup stats.
func TestFindCampaignFindsAtLeastSingleRun(t *testing.T) {
	for _, name := range []string{"lists", "maps"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			single := dlfuzz.DefaultCheckOptions()
			single.Confirm.Runs = 40
			one, err := dlfuzz.Check(w.Prog, single)
			if err != nil {
				t.Fatal(err)
			}

			multi := single
			multi.Find.Runs = 8
			many, err := dlfuzz.Check(w.Prog, multi)
			if err != nil {
				t.Fatal(err)
			}

			if len(many.Find.Cycles) < len(one.Find.Cycles) {
				t.Errorf("campaign predicted %d cycles, single run %d",
					len(many.Find.Cycles), len(one.Find.Cycles))
			}
			if len(many.Confirmed()) < len(one.Confirmed()) {
				t.Errorf("campaign confirmed %d cycles, single run %d",
					len(many.Confirmed()), len(one.Confirmed()))
			}
			fr := many.Find
			if fr.ObservationRuns != 8 || fr.CompletedRuns == 0 ||
				fr.RawDeps < fr.Deps || len(fr.NewCyclesByRun) != 8 {
				t.Errorf("campaign stats malformed: runs=%d completed=%d raw=%d merged=%d curve=%v",
					fr.ObservationRuns, fr.CompletedRuns, fr.RawDeps, fr.Deps, fr.NewCyclesByRun)
			}
			if one.Find.ObservationRuns != 1 || one.Find.RawDeps != one.Find.Deps {
				t.Errorf("single-run stats malformed: %+v", one.Find)
			}
		})
	}
}
