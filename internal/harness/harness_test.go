package harness

import (
	"math"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// inversion is a minimal skewed two-lock inversion.
func inversion(c *sched.Ctx) {
	a := c.New("Object", "h:1")
	b := c.New("Object", "h:2")
	body := func(l1, l2 *object.Obj, d int) func(*sched.Ctx) {
		return func(c *sched.Ctx) {
			c.Work(d, "h:3")
			c.Sync(l1, "h:4", func() {
				c.Sync(l2, "h:5", func() {})
			})
		}
	}
	t1 := c.Spawn("a", nil, "h:6", body(a, b, 30))
	t2 := c.Spawn("b", nil, "h:7", body(b, a, 0))
	c.Join(t1, "h:8")
	c.Join(t2, "h:8")
}

// The experiments' Phase I step: one observation run from seed 1.
func TestRunPhase1FindsCycle(t *testing.T) {
	p1, err := observe(inversion, DefaultVariant().Goodlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Cycles) != 1 || p1.Deps != 2 {
		t.Fatalf("cycles=%d deps=%d", len(p1.Cycles), p1.Deps)
	}
	if p1.Steps == 0 || p1.Events == 0 {
		t.Errorf("missing run statistics: %+v", p1)
	}
}

func TestRunPhase1GivesUp(t *testing.T) {
	// A program that always deadlocks: no observation run completes.
	always := func(c *sched.Ctx) {
		a := c.New("Object", "d:1")
		b := c.New("Object", "d:2")
		t1 := c.Spawn("x", nil, "d:3", func(c *sched.Ctx) {
			c.Acquire(a, "d:4")
			c.Acquire(b, "d:5")
		})
		c.Acquire(b, "d:6")
		c.Acquire(a, "d:7")
		c.Release(a, "d:7")
		c.Release(b, "d:6")
		c.Join(t1, "d:8")
	}
	// Not every seed deadlocks, so run the check only if all attempts
	// fail; what must hold is that a returned error is ErrNoCompletedRun
	// and a nil error comes with a usable result.
	p1, err := observe(always, DefaultVariant().Goodlock, 0)
	if err != nil && err != analysis.ErrNoCompletedRun {
		t.Fatalf("unexpected error %v", err)
	}
	if err == nil && p1 == nil {
		t.Fatal("nil result without error")
	}
}

// The experiments' Phase II step: a single-cycle campaign.
func TestRunPhase2Campaign(t *testing.T) {
	p1, err := observe(inversion, DefaultVariant().Goodlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := campaign.ConfirmCycles(inversion, []*igoodlock.Cycle{p1.Cycles[0]},
		DefaultVariant().Fuzzer, 20, 0, campaign.Options{}).Cycles[0]
	if sum.Runs != 20 {
		t.Errorf("runs = %d", sum.Runs)
	}
	if sum.Reproduced < 19 {
		t.Errorf("reproduced %d/20", sum.Reproduced)
	}
	if got := sum.Probability(); got != float64(sum.Reproduced)/20 {
		t.Errorf("probability = %v", got)
	}
	if sum.AvgSteps() <= 0 {
		t.Error("no steps recorded")
	}
}

// The experiments' uninstrumented control.
func TestRunBaseline(t *testing.T) {
	base := campaign.Baseline(inversion, 20, 0, campaign.Options{})
	if base.Runs != 20 {
		t.Errorf("runs = %d", base.Runs)
	}
	if base.Deadlocked > 5 {
		t.Errorf("skewed inversion deadlocked %d/20 under plain random", base.Deadlocked)
	}
	if base.AvgSteps() <= 0 {
		t.Error("no steps recorded")
	}
}

func TestVariantsMatchPaper(t *testing.T) {
	vs := Variants()
	if len(vs) != 5 {
		t.Fatalf("variants = %d", len(vs))
	}
	v2 := vs[1]
	if v2.Name != "context+exec-index" || v2.Fuzzer.Abstraction != object.ExecIndex ||
		!v2.Fuzzer.UseContext || !v2.Fuzzer.YieldOpt {
		t.Errorf("variant 2 misconfigured: %+v", v2)
	}
	if DefaultVariant().Name != v2.Name {
		t.Error("default variant should be variant 2")
	}
	for _, v := range vs {
		if v.Fuzzer.Abstraction != v.Goodlock.Abstraction || v.Fuzzer.K != v.Goodlock.K {
			t.Errorf("%s: phase configs disagree on abstraction", v.Name)
		}
	}
}

func TestBuildTable1RowDeadlockFree(t *testing.T) {
	w, _ := workloads.ByName("cache4j")
	row, err := BuildTable1Row(w, Table1Options{Runs: 5, BaselineRuns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if row.Potential != 0 || row.Confirmed != 0 || row.BaselineDeadlocks != 0 {
		t.Errorf("row = %+v", row)
	}
	if row.NormalMs <= 0 || row.Phase1Ms <= 0 {
		t.Errorf("timings missing: %+v", row)
	}
}

func TestBuildTable1RowWithDeadlocks(t *testing.T) {
	w, _ := workloads.ByName("dbcp")
	row, err := BuildTable1Row(w, Table1Options{Runs: 10, BaselineRuns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if row.Potential != 2 || row.Confirmed != 2 {
		t.Errorf("dbcp row: potential=%d confirmed=%d", row.Potential, row.Confirmed)
	}
	if row.Probability < 0.9 {
		t.Errorf("dbcp probability = %v", row.Probability)
	}
}

func TestProbabilityByThrashBucket(t *testing.T) {
	points := []CorrelationPoint{
		{0, true}, {0, true}, {0, false},
		{3, false}, {3, true},
	}
	b := ProbabilityByThrashBucket(points)
	if math.Abs(b[0]-2.0/3) > 1e-9 || math.Abs(b[3]-0.5) > 1e-9 {
		t.Errorf("buckets = %v", b)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	// Perfect anti-correlation: reproduced iff zero thrashes.
	var points []CorrelationPoint
	for i := 0; i < 10; i++ {
		points = append(points, CorrelationPoint{Thrashes: 0, Reproduced: true})
		points = append(points, CorrelationPoint{Thrashes: 5, Reproduced: false})
	}
	if r := PearsonCorrelation(points); math.Abs(r+1) > 1e-9 {
		t.Errorf("r = %v, want -1", r)
	}
	if r := PearsonCorrelation(nil); r != 0 {
		t.Errorf("r of empty = %v", r)
	}
	// Constant data: undefined correlation reported as 0.
	flat := []CorrelationPoint{{1, true}, {1, true}}
	if r := PearsonCorrelation(flat); r != 0 {
		t.Errorf("r of constant = %v", r)
	}
}

func TestFigure2BenchmarksResolve(t *testing.T) {
	ws := Figure2Benchmarks()
	if len(ws) != 5 {
		t.Fatalf("benchmarks = %d", len(ws))
	}
}

func TestBuildFigure2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full variant sweep")
	}
	points, err := BuildFigure2(3, 2, 0, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5*5 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Probability < 0 || p.Probability > 1 {
			t.Errorf("%s/%s probability %v", p.Benchmark, p.Variant, p.Probability)
		}
	}
}

func TestBuildCorrelationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("correlation sweep")
	}
	points, err := BuildCorrelation(2, 2, 0, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
}
