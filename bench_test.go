package dlfuzz_test

// Benchmarks regenerating the paper's evaluation. Each benchmark
// iteration is one randomized Phase II execution, so `go test -bench`
// output reports, per benchmark (and per Figure 2 variant):
//
//	prob        — empirical probability of reproducing the deadlock
//	            	(Table 1 column 9, Figure 2 second graph)
//	thrash/run  — average thrashings per run (column 10, third graph)
//	steps/run   — deterministic runtime proxy (first graph, normalized
//	            	against BenchmarkBaseline)
//	cycles      — potential deadlock cycles found by iGoodlock (col 6)
//
// cmd/dlbench prints the same data as assembled tables; EXPERIMENTS.md
// records a reference run against the paper's numbers.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/analysis"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// phase1For runs iGoodlock once for a workload under a variant,
// outside benchmark timing.
func phase1For(b *testing.B, w workloads.Workload, v harness.Variant) *analysis.CampaignObservation {
	b.Helper()
	p1, err := analysis.ObserveMany(w.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		b.Fatalf("%s: %v", w.Name, err)
	}
	return p1
}

// benchCampaign runs b.N active-checker executions round-robin over the
// workload's cycles and reports the paper's metrics.
func benchCampaign(b *testing.B, w workloads.Workload, v harness.Variant) {
	b.Helper()
	p1 := phase1For(b, w, v)
	b.ReportMetric(float64(len(p1.Cycles)+len(p1.FalsePositives)), "cycles")
	if len(p1.Cycles) == 0 {
		return
	}
	var reproduced, thrashes, steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc := p1.Cycles[i%len(p1.Cycles)]
		r := fuzzer.Run(w.Prog, cyc, v.Fuzzer, int64(i), 0)
		if r.Reproduced {
			reproduced++
		}
		thrashes += r.Stats.Thrashes
		steps += r.Result.Steps
	}
	n := float64(b.N)
	b.ReportMetric(float64(reproduced)/n, "prob")
	b.ReportMetric(float64(thrashes)/n, "thrash/run")
	b.ReportMetric(float64(steps)/n, "steps/run")
}

// BenchmarkTable1 regenerates Table 1: per benchmark, the default
// variant's cycle count, reproduction probability and thrashing.
func BenchmarkTable1(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			benchCampaign(b, w, harness.DefaultVariant())
		})
	}
}

// BenchmarkBaseline measures the uninstrumented control of Table 1:
// plain random scheduling, counting accidental deadlocks (the paper saw
// none in 100 runs) and baseline steps for runtime normalization.
func BenchmarkBaseline(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			deadlocks, steps := 0, 0
			for i := 0; i < b.N; i++ {
				res := sched.New(sched.Options{Seed: int64(i)}).Run(w.Prog)
				if res.Outcome == sched.Deadlock {
					deadlocks++
				}
				steps += res.Steps
			}
			n := float64(b.N)
			b.ReportMetric(float64(deadlocks)/n, "prob")
			b.ReportMetric(float64(steps)/n, "steps/run")
		})
	}
}

// BenchmarkFigure2 regenerates all of Figure 2's per-variant graphs:
// each benchmark x variant pair reports probability (graph 2), thrashing
// (graph 3) and steps/run (graph 1, normalize against BenchmarkBaseline).
func BenchmarkFigure2(b *testing.B) {
	for _, w := range harness.Figure2Benchmarks() {
		w := w
		for _, v := range harness.Variants() {
			v := v
			b.Run(w.Name+"/"+v.Name, func(b *testing.B) {
				benchCampaign(b, w, v)
			})
		}
	}
}

// BenchmarkFigure2Correlation regenerates the fourth graph: the
// correlation between thrash count and reproduction success across the
// Figure 2 benchmarks.
func BenchmarkFigure2Correlation(b *testing.B) {
	type target struct {
		w   workloads.Workload
		v   harness.Variant
		cyc *igoodlock.Cycle
	}
	var targets []target
	for _, w := range harness.Figure2Benchmarks() {
		// All five variants, so the thrash axis has support (the
		// default variant almost never thrashes on these models).
		for _, v := range harness.Variants() {
			p1 := phase1For(b, w, v)
			for _, cyc := range p1.Cycles {
				targets = append(targets, target{w, v, cyc})
			}
		}
	}
	var points []harness.CorrelationPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := targets[i%len(targets)]
		r := fuzzer.Run(t.w.Prog, t.cyc, t.v.Fuzzer, int64(i), 0)
		points = append(points, harness.CorrelationPoint{
			Thrashes:   r.Stats.Thrashes,
			Reproduced: r.Reproduced,
		})
	}
	b.ReportMetric(harness.PearsonCorrelation(points), "pearson")
}

// BenchmarkSection54Imprecision regenerates the Jigsaw imprecision
// numbers: potential vs provably-false cycle counts per Phase I run.
func BenchmarkSection54Imprecision(b *testing.B) {
	w, _ := workloads.ByName("jigsaw")
	v := harness.DefaultVariant()
	var potential, falsePos int
	for i := 0; i < b.N; i++ {
		p1, err := analysis.ObserveMany(w.Prog, v.Goodlock, analysis.CampaignOptions{Runs: 1, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		potential += len(p1.Cycles) + len(p1.FalsePositives)
		falsePos += len(p1.FalsePositives)
	}
	n := float64(b.N)
	b.ReportMetric(float64(potential)/n, "potential")
	b.ReportMetric(float64(falsePos)/n, "hb-false")
}

// loadCLFTarget parses a testdata program and finds its first potential
// cycle, outside benchmark timing.
func loadCLFTarget(b *testing.B, name string) (func(*dlfuzz.Ctx), *dlfuzz.Cycle) {
	b.Helper()
	file := filepath.Join("testdata", name+".clf")
	src, err := os.ReadFile(file)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := dlfuzz.ParseCLF(file, string(src))
	if err != nil {
		b.Fatal(err)
	}
	body := prog.Body()
	find, err := dlfuzz.Find(body, dlfuzz.DefaultFindOptions())
	if err != nil {
		b.Fatal(err)
	}
	if len(find.Cycles) == 0 {
		b.Fatalf("%s: no potential cycles", name)
	}
	return body, find.Cycles[0]
}

// BenchmarkConfirmCampaign measures the campaign engine's scaling: one
// benchmark iteration is one full 64-run Confirm campaign against the
// program's first cycle, at 1, 2, 4 and all-core worker counts. The
// report is identical at every width — only the wall time moves — so
// the p1-vs-p4 ratio is the engine's speedup.
func BenchmarkConfirmCampaign(b *testing.B) {
	for _, name := range []string{"philosophers", "webserver"} {
		body, cyc := loadCLFTarget(b, name)
		for _, par := range []int{1, 2, 4, 0} {
			label := fmt.Sprintf("%s/p%d", name, par)
			if par == 0 {
				label = name + "/pmax"
			}
			b.Run(label, func(b *testing.B) {
				opts := dlfuzz.DefaultConfirmOptions()
				opts.Runs = 64
				opts.Parallelism = par
				var reproduced int
				for i := 0; i < b.N; i++ {
					rep := dlfuzz.Confirm(body, cyc, opts)
					reproduced = rep.Reproduced
				}
				b.ReportMetric(float64(reproduced)/float64(opts.Runs), "prob")
			})
		}
	}
}

// BenchmarkCheck measures the whole pipeline a dlfuzz user runs: one op
// is one Check (Phase I observation and closure, then the shared 100-run
// Phase II campaign) on a Figure-2 workload, serial in both phases so
// the cost is per core. `make profile` runs it under go test's
// -cpuprofile and -memprofile.
func BenchmarkCheck(b *testing.B) {
	for _, w := range harness.Figure2Benchmarks() {
		b.Run(w.Name, func(b *testing.B) {
			opts := dlfuzz.DefaultCheckOptions()
			opts.Find.Parallelism = 1
			opts.Confirm.Parallelism = 1
			var execs, confirmed int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := dlfuzz.Check(w.Prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				execs += rep.Executions
				confirmed = len(rep.Confirmed())
			}
			b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
			b.ReportMetric(float64(confirmed), "confirmed")
		})
	}
}

// --- Ablation microbenchmarks for the design choices DESIGN.md calls
// out: scheduler handshake cost, dependency recording overhead, and the
// iGoodlock join itself.

// BenchmarkSchedulerSteps measures raw scheduling throughput (the
// per-operation cost of the lockstep handshake), for a fresh scheduler
// per run and for pooled shells. One op is a 1000-step execution, so
// allocs/op ÷ 1000 is the per-step allocation count.
func BenchmarkSchedulerSteps(b *testing.B) {
	prog := func(c *sched.Ctx) {
		for i := 0; i < 1000; i++ {
			c.Step("bench:1")
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sched.New(sched.Options{Seed: int64(i)}).Run(prog)
		}
		b.ReportMetric(1000, "steps/op")
	})
	b.Run("pooled", func(b *testing.B) {
		pool := sched.NewPool()
		pool.Run(sched.Options{Seed: 0}, prog)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Run(sched.Options{Seed: int64(i)}, prog)
		}
		b.ReportMetric(1000, "steps/op")
	})
}

// acquireProg is the Acquire/Release hot loop: pairs nested
// acquire/release operations over two locks with no per-iteration
// closures, so the steady state is pure lock bookkeeping — lock-stack
// pushes, snapshot publication, and the handshake.
func acquireProg(pairs int) func(*sched.Ctx) {
	return func(c *sched.Ctx) {
		a := c.New("Object", "bench:a")
		bb := c.New("Object", "bench:b")
		for i := 0; i < pairs; i++ {
			c.Acquire(a, "bench:1")
			c.Acquire(bb, "bench:2")
			c.Release(bb, "bench:2")
			c.Release(a, "bench:1")
		}
	}
}

// BenchmarkAcquirePath isolates the Acquire/Release path the paper's
// active checker lives on: 500 nested pairs per op, plain vs observed
// (a dependency recorder attached, so lock/context snapshots are
// published) vs pooled. allocs/op ÷ 1000 is allocations per acquire.
func BenchmarkAcquirePath(b *testing.B) {
	prog := acquireProg(500)
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sched.New(sched.Options{Seed: int64(i)}).Run(prog)
		}
	})
	b.Run("observed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := lockset.NewRecorder()
			sched.New(sched.Options{
				Seed:      int64(i),
				Observers: []sched.Observer{rec},
			}).Run(prog)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := sched.NewPool()
		pool.Run(sched.Options{Seed: 0}, prog)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Run(sched.Options{Seed: int64(i)}, prog)
		}
	})
}

// BenchmarkRecorderOverhead compares an instrumented run (dependency
// recording on) against BenchmarkSchedulerSteps to expose the Phase I
// observation overhead (Table 1 column 4 vs column 3).
func BenchmarkRecorderOverhead(b *testing.B) {
	w, _ := workloads.ByName("lists")
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sched.New(sched.Options{Seed: int64(i)}).Run(w.Prog)
		}
	})
	b.Run("recording", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := lockset.NewRecorder()
			sched.New(sched.Options{
				Seed:      int64(i),
				Observers: []sched.Observer{rec},
			}).Run(w.Prog)
		}
	})
}

// BenchmarkIGoodlockJoin measures Algorithm 1 itself on the largest
// dependency relation in the suite (the 27-session lists workload).
func BenchmarkIGoodlockJoin(b *testing.B) {
	w, _ := workloads.ByName("lists")
	rec := lockset.NewRecorder()
	s := sched.New(sched.Options{Seed: 3, Observers: []sched.Observer{rec}})
	if s.Run(w.Prog).Outcome != sched.Completed {
		b.Skip("observation run deadlocked")
	}
	cfg := harness.DefaultVariant().Goodlock.Closure()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles := igoodlock.Find(rec.Deps(), cfg)
		if len(cycles) == 0 {
			b.Fatal("no cycles")
		}
	}
	b.ReportMetric(float64(rec.Len()), "deps")
}

// BenchmarkClosure measures the iGoodlock closure itself — serial vs
// sharded — on the synthetic wide relation (64 threads × 32 chained ring
// locks, multi-element held sets): exactly the dependency-heavy shape
// where the iterative join dominates Phase I. One op is a full closure;
// the w1 case is the serial Find, so w4/w1 is the sharding speedup
// (meaningful only with more than one core).
// The report is byte-identical at every width, pinned by the
// differential tests in internal/igoodlock.
func BenchmarkClosure(b *testing.B) {
	deps := igoodlock.WideRelation(64, 32, 2)
	for _, maxLen := range []int{2, 3} {
		cfg := igoodlock.WideConfig(maxLen)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("k%d/w%d", maxLen, workers), func(b *testing.B) {
				b.ReportAllocs()
				var cycles int
				for i := 0; i < b.N; i++ {
					cycles = len(igoodlock.FindParallel(deps, cfg, workers))
				}
				if cycles == 0 {
					b.Fatal("synthetic relation yields no cycles")
				}
				b.ReportMetric(float64(cycles), "cycles")
				b.ReportMetric(float64(len(deps)), "deps")
			})
		}
	}
}

// BenchmarkNoiseBaseline contrasts DeadlockFuzzer with the ConTest-style
// noise approach the paper's related-work section discusses: random
// delays at synchronization points instead of targeted pauses. Compare
// its prob metric with BenchmarkTable1's — noise cannot hold a thread in
// place, so it rarely creates the skewed deadlocks.
func BenchmarkNoiseBaseline(b *testing.B) {
	for _, w := range harness.Figure2Benchmarks() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			deadlocks := 0
			for i := 0; i < b.N; i++ {
				pol := fuzzer.NoisePolicy{P: 0.5}
				res := sched.New(sched.Options{Seed: int64(i), Policy: pol}).Run(w.Prog)
				if res.Outcome == sched.Deadlock {
					deadlocks++
				}
			}
			b.ReportMetric(float64(deadlocks)/float64(b.N), "prob")
		})
	}
}

// BenchmarkCLFInterp compares the CLF back ends: each iteration is one
// plain scheduled execution of a committed program, once per back end
// sub-benchmark, reporting steps/sec. The programs are philosophers,
// pipeline, the compute-bound dense.clf and every committed corpus
// entry. The corpus entries are lock-dense, so the shared handshake
// bounds the VM's advantage there; dense.clf brackets the ratio from
// the other side. The VM's speedup over the tree-walker here is the
// number EXPERIMENTS.md records.
func BenchmarkCLFInterp(b *testing.B) {
	names := []string{"philosophers.clf", "pipeline.clf", "dense.clf"}
	corpus, err := filepath.Glob(filepath.Join("testdata", "corpus", "gen-*.clf"))
	if err != nil {
		b.Fatal(err)
	}
	for _, file := range corpus {
		names = append(names, filepath.Join("corpus", filepath.Base(file)))
	}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := dlfuzz.ParseCLF(name, string(src))
		if err != nil {
			b.Fatal(err)
		}
		for _, backend := range []struct {
			name string
			body func(*sched.Ctx)
		}{
			{"vm", prog.Body()},
			{"tree", prog.TreeWalkBody()},
		} {
			backend := backend
			b.Run(name+"/"+backend.name, func(b *testing.B) {
				pool := sched.NewPool()
				steps := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					steps += pool.Run(sched.Options{Seed: int64(i)}, backend.body).Steps
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
				}
			})
		}
	}
}
