package harness

import (
	"fmt"
	"math"
	"time"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/predict"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// observe is the paper's Phase I: one observation run, retrying from
// seed 1 until an execution completes.
func observe(prog func(*sched.Ctx), cfg predict.Config, maxSteps int) (*analysis.CampaignObservation, error) {
	return analysis.ObserveMany(prog, cfg, analysis.CampaignOptions{Runs: 1, Seed: 1, MaxSteps: maxSteps})
}

// Table1Row is one benchmark's row of the paper's Table 1.
type Table1Row struct {
	Name     string
	PaperLoC int
	// Runtime proxies: average wall time of an uninstrumented run, the
	// Phase I run (instrumented + analysis), and a Phase II run.
	NormalMs    float64
	Phase1Ms    float64
	Phase2Ms    float64
	NormalSteps float64
	// Potential is iGoodlock's cycle count (plausible + provably
	// false); ProvablyFalse is the happens-before filtered subset.
	Potential     int
	ProvablyFalse int
	// Confirmed counts cycles DeadlockFuzzer reproduced at least once;
	// Deadlocked counts cycles whose campaigns hit any real deadlock.
	Confirmed  int
	Deadlocked int
	// Probability is the mean reproduction probability over all
	// plausible cycles; AvgThrashes the mean thrash count per run.
	Probability float64
	AvgThrashes float64
	// Phase2Execs is the total number of Phase II executions the row
	// cost. The multi-cycle campaign keeps it near Runs regardless of
	// how many cycles the workload has (the per-cycle path paid
	// cycles × Runs).
	Phase2Execs int
	// BaselineDeadlocks is how many of the uninstrumented control runs
	// deadlocked (the paper observed 0 of 100).
	BaselineDeadlocks int
}

// Table1Options sizes a Table 1 campaign.
type Table1Options struct {
	// Runs is the total Phase II execution budget per workload, shared
	// across its cycles by the multi-cycle campaign (the paper's
	// per-cycle path used 100 runs for each cycle; here 100 buys the
	// whole row).
	Runs int
	// BaselineRuns is the number of uninstrumented control runs.
	BaselineRuns int
	// MaxSteps bounds each execution.
	MaxSteps int
	// MaxCycles caps how many cycles the campaign targets (0 = all);
	// useful to keep test-suite time bounded.
	MaxCycles int
	// Parallelism is the campaign worker count (0 = all cores, 1 =
	// serial); the row's counters are identical at every setting.
	Parallelism int
	// StopAfter ends the workload's campaign after that many targeted
	// reproductions across all cycles (0 = run every seed).
	// Early-stopped campaigns report probabilities over the seeds that
	// actually ran.
	StopAfter int
	// OnRun, when non-nil, streams one observability record per Phase II
	// execution of the row's multi-cycle campaign (see internal/obs).
	// The uninstrumented baseline control does not report.
	OnRun func(*obs.RunRecord)
}

// DefaultTable1Options mirrors the paper's setup.
func DefaultTable1Options() Table1Options {
	return Table1Options{Runs: 100, BaselineRuns: 100}
}

// BuildTable1Row runs the full two-phase experiment for one workload.
func BuildTable1Row(w workloads.Workload, opt Table1Options) (Table1Row, error) {
	if opt.Runs == 0 {
		opt.Runs = 100
	}
	if opt.BaselineRuns == 0 {
		opt.BaselineRuns = opt.Runs
	}
	v := DefaultVariant()
	copts := campaign.Options{Parallelism: opt.Parallelism, StopAfter: opt.StopAfter, OnRun: opt.OnRun}

	row := Table1Row{Name: w.Name, PaperLoC: w.PaperLoC}

	// The baseline control always runs every seed; StopAfter only
	// bounds the per-cycle reproduction campaigns.
	start := time.Now()
	base := campaign.Baseline(w.Prog, opt.BaselineRuns, opt.MaxSteps,
		campaign.Options{Parallelism: opt.Parallelism})
	row.NormalMs = ms(time.Since(start)) / float64(base.Runs)
	row.NormalSteps = base.AvgSteps()
	row.BaselineDeadlocks = base.Deadlocked

	start = time.Now()
	p1, err := observe(w.Prog, v.Goodlock, opt.MaxSteps)
	if err != nil {
		return row, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	row.Phase1Ms = ms(time.Since(start))
	row.Potential = len(p1.Cycles) + len(p1.FalsePositives)
	row.ProvablyFalse = len(p1.FalsePositives)

	cycles := p1.Cycles
	if opt.MaxCycles > 0 && len(cycles) > opt.MaxCycles {
		cycles = cycles[:opt.MaxCycles]
	}
	if len(cycles) > 0 {
		// One multi-cycle campaign covers every cycle: ~Runs executions
		// total instead of Runs per cycle, with deadlocks credited to
		// every candidate they match.
		start = time.Now()
		multi := campaign.ConfirmCycles(w.Prog, cycles, v.Fuzzer, opt.Runs, opt.MaxSteps, copts)
		elapsed := time.Since(start)
		var probSum, thrashSum float64
		for i := range multi.Cycles {
			cs := &multi.Cycles[i]
			if cs.Confirmed() {
				row.Confirmed++
			}
			if cs.Deadlocked > 0 || cs.CrossMatches > 0 {
				row.Deadlocked++
			}
			probSum += cs.Probability()
			thrashSum += cs.AvgThrashes()
		}
		n := float64(len(cycles))
		row.Probability = probSum / n
		row.AvgThrashes = thrashSum / n
		row.Phase2Execs = multi.Executions
		if multi.Executions > 0 {
			row.Phase2Ms = ms(elapsed) / float64(multi.Executions)
		}
	}
	return row, nil
}

// ms converts a wall time to fractional milliseconds at microsecond
// resolution, the precision Table 1 reports.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Figure2Point is one (benchmark, variant) measurement of Figure 2:
// runtime (normalized to the uninstrumented baseline), reproduction
// probability, and thrashing.
type Figure2Point struct {
	Benchmark string
	Variant   string
	// RuntimeNorm is avg Phase II steps / avg baseline steps, the
	// deterministic analogue of the paper's normalized runtime.
	RuntimeNorm float64
	Probability float64
	AvgThrashes float64
}

// Figure2Benchmarks returns the four benchmarks the paper uses in
// Figure 2.
func Figure2Benchmarks() []workloads.Workload {
	names := []string{"lists", "maps", "log", "dbcp", "swing"}
	var out []workloads.Workload
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			panic("harness: unknown figure-2 workload " + n)
		}
		out = append(out, w)
	}
	return out
}

// BuildFigure2 measures every (benchmark, variant) pair. runs is the
// Phase II campaign size per cycle; maxCycles caps cycles per benchmark
// (0 = all); opts sizes the campaign worker pool.
func BuildFigure2(runs, maxCycles, maxSteps int, opts campaign.Options) ([]Figure2Point, error) {
	var out []Figure2Point
	for _, w := range Figure2Benchmarks() {
		base := campaign.Baseline(w.Prog, 10, maxSteps, opts)
		for _, v := range Variants() {
			p1, err := observe(w.Prog, v.Goodlock, maxSteps)
			if err != nil {
				return nil, fmt.Errorf("figure2 %s/%s: %w", w.Name, v.Name, err)
			}
			cycles := p1.Cycles
			if maxCycles > 0 && len(cycles) > maxCycles {
				cycles = cycles[:maxCycles]
			}
			pt := Figure2Point{Benchmark: w.Name, Variant: v.Name}
			var steps float64
			for _, cyc := range cycles {
				sum := campaign.ConfirmCycles(w.Prog, []*igoodlock.Cycle{cyc}, v.Fuzzer, runs, maxSteps, opts).Cycles[0]
				pt.Probability += sum.Probability()
				pt.AvgThrashes += sum.AvgThrashes()
				steps += sum.AvgSteps()
			}
			if n := len(cycles); n > 0 {
				pt.Probability /= float64(n)
				pt.AvgThrashes /= float64(n)
				steps /= float64(n)
			}
			if b := base.AvgSteps(); b > 0 {
				pt.RuntimeNorm = steps / b
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// CorrelationPoint is one run's (thrashes, reproduced) observation for
// Figure 2's fourth graph.
type CorrelationPoint struct {
	Thrashes   int
	Reproduced bool
}

// BuildCorrelation gathers per-run (thrash count, reproduced)
// observations across the Figure 2 benchmarks and *all five* variants.
// The sweep must include the imprecise variants: the well-tuned default
// barely ever thrashes, so the thrash axis only has support when coarse
// abstractions and missing contexts are in the mix — which is exactly
// the paper's point about why those runs fail. The points are
// collected through opts.OnRun, which BuildCorrelation sets.
func BuildCorrelation(runs, maxCycles, maxSteps int, opts campaign.Options) ([]CorrelationPoint, error) {
	var out []CorrelationPoint
	// The per-run hook fires in seed order, so the point list is
	// identical at every parallelism.
	opts.OnRun = func(r *obs.RunRecord) {
		out = append(out, CorrelationPoint{Thrashes: r.Thrashes, Reproduced: r.Reproduced})
	}
	for _, w := range Figure2Benchmarks() {
		for _, v := range Variants() {
			p1, err := observe(w.Prog, v.Goodlock, maxSteps)
			if err != nil {
				return nil, fmt.Errorf("correlation %s/%s: %w", w.Name, v.Name, err)
			}
			cycles := p1.Cycles
			if maxCycles > 0 && len(cycles) > maxCycles {
				cycles = cycles[:maxCycles]
			}
			for _, cyc := range cycles {
				campaign.ConfirmCycles(w.Prog, []*igoodlock.Cycle{cyc}, v.Fuzzer, runs, maxSteps, opts)
			}
		}
	}
	return out, nil
}

// ProbabilityByThrashBucket reduces correlation points to the paper's
// fourth graph: for each thrash count, the fraction of runs that
// reproduced their deadlock.
func ProbabilityByThrashBucket(points []CorrelationPoint) map[int]float64 {
	count := map[int]int{}
	hit := map[int]int{}
	for _, p := range points {
		count[p.Thrashes]++
		if p.Reproduced {
			hit[p.Thrashes]++
		}
	}
	out := make(map[int]float64, len(count))
	for k, n := range count {
		out[k] = float64(hit[k]) / float64(n)
	}
	return out
}

// PearsonCorrelation computes the correlation coefficient between thrash
// count and reproduction outcome across runs. The paper's claim is that
// it is negative.
func PearsonCorrelation(points []CorrelationPoint) float64 {
	n := float64(len(points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range points {
		x := float64(p.Thrashes)
		y := 0.0
		if p.Reproduced {
			y = 1
		}
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	num := n*sxy - sx*sy
	den := math.Sqrt(n*sxx-sx*sx) * math.Sqrt(n*syy-sy*sy)
	if den == 0 {
		return 0
	}
	return num / den
}
