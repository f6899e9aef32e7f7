package campaign_test

// The engine's contract is exactly what makes seed-sharding sound:
// consume order, early-stop semantics, and aggregate equality between
// serial and parallel campaigns. The workload-level equivalence tests
// here are the determinism regression the ISSUE asks for; run this
// package under -race to check the concurrent plumbing itself.

import (
	"reflect"
	"testing"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/harness"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/obs"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// TestRunConsumesInSeedOrder checks the engine's core invariant at
// several worker counts, including more workers than seeds.
func TestRunConsumesInSeedOrder(t *testing.T) {
	for _, par := range []int{0, 1, 2, 3, 16, 64} {
		var got []int
		n := campaign.Run(40, campaign.Options{Parallelism: par},
			func(seed int) int { return seed * seed },
			nil,
			func(seed, v int) {
				if v != seed*seed {
					t.Fatalf("par=%d: seed %d carried value %d", par, seed, v)
				}
				got = append(got, seed)
			})
		if n != 40 || len(got) != 40 {
			t.Fatalf("par=%d: consumed %d (returned %d)", par, len(got), n)
		}
		for i, s := range got {
			if s != i {
				t.Fatalf("par=%d: position %d consumed seed %d", par, i, s)
			}
		}
	}
}

func TestRunEmptyCampaign(t *testing.T) {
	called := false
	for _, runs := range []int{0, -3} {
		if n := campaign.Run(runs, campaign.Options{},
			func(int) int { return 0 }, nil,
			func(int, int) { called = true }); n != 0 || called {
			t.Fatalf("runs=%d: consumed %d, called=%v", runs, n, called)
		}
	}
}

// TestRunStopAfter checks that early stop is defined in seed order: the
// campaign consumes exactly the prefix up to the N-th hit, at every
// parallelism.
func TestRunStopAfter(t *testing.T) {
	hit := func(v int) bool { return v%5 == 4 } // seeds 4, 9, 14, ...
	for _, par := range []int{0, 1, 2, 8} {
		consumed := 0
		n := campaign.Run(100, campaign.Options{Parallelism: par, StopAfter: 2},
			func(seed int) int { return seed },
			hit,
			func(seed, v int) { consumed++ })
		if n != 10 || consumed != 10 {
			t.Errorf("par=%d: consumed %d seeds (returned %d), want 10", par, consumed, n)
		}
	}
	// StopAfter larger than the number of hits runs everything.
	if n := campaign.Run(12, campaign.Options{StopAfter: 99},
		func(seed int) int { return seed }, hit, func(int, int) {}); n != 12 {
		t.Errorf("unreachable StopAfter consumed %d seeds", n)
	}
	// StopAfter without a hit predicate runs everything.
	if n := campaign.Run(12, campaign.Options{StopAfter: 1},
		func(seed int) int { return seed }, nil, func(int, int) {}); n != 12 {
		t.Errorf("StopAfter with nil hit consumed %d seeds", n)
	}
}

// phase1Cycles finds a workload's potential cycles with the default
// variant, skipping the test when observation fails.
func phase1Cycles(t *testing.T, w workloads.Workload) *analysis.CampaignObservation {
	t.Helper()
	return observeOnce(t, w.Prog)
}

// observeOnce runs the paper's single Phase I observation (seed 1) with
// the default variant, failing the test when no run completes.
func observeOnce(t *testing.T, prog func(*sched.Ctx)) *analysis.CampaignObservation {
	t.Helper()
	p1, err := analysis.ObserveMany(prog, harness.DefaultVariant().Goodlock,
		analysis.CampaignOptions{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p1
}

// confirmOne runs a single-cycle campaign against cyc and returns its
// per-cycle summary.
func confirmOne(prog func(*sched.Ctx), cyc *igoodlock.Cycle, cfg fuzzer.Config, runs int, opts campaign.Options) campaign.Summary {
	return campaign.ConfirmCycles(prog, []*igoodlock.Cycle{cyc}, cfg, runs, 0, opts).Cycles[0].Summary
}

// TestParallelConfirmMatchesSerial is the headline determinism
// regression: for each Figure 2 workload, a 32-run parallel campaign
// must produce a Summary identical to the serial one, cycle by cycle.
func TestParallelConfirmMatchesSerial(t *testing.T) {
	covered := 0
	for _, w := range harness.Figure2Benchmarks() {
		p1 := phase1Cycles(t, w)
		if len(p1.Cycles) == 0 {
			continue
		}
		covered++
		cycles := p1.Cycles
		if len(cycles) > 2 {
			cycles = cycles[:2]
		}
		cfg := harness.DefaultVariant().Fuzzer
		for i, cyc := range cycles {
			serial := confirmOne(w.Prog, cyc, cfg, 32, campaign.Options{Parallelism: 1})
			for _, par := range []int{0, 4} {
				parallel := confirmOne(w.Prog, cyc, cfg, 32, campaign.Options{Parallelism: par})
				if !reflect.DeepEqual(serial, parallel) {
					t.Errorf("%s cycle %d: parallelism %d diverged:\nserial   %+v\nparallel %+v",
						w.Name, i, par, serial, parallel)
				}
			}
		}
	}
	if covered < 3 {
		t.Fatalf("only %d workloads had cycles; the regression needs at least 3", covered)
	}
}

// TestParallelBaselineMatchesSerial covers the uninstrumented control
// path of the engine.
func TestParallelBaselineMatchesSerial(t *testing.T) {
	for _, name := range []string{"lists", "dbcp", "log"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		serial := campaign.Baseline(w.Prog, 32, 0, campaign.Options{Parallelism: 1})
		parallel := campaign.Baseline(w.Prog, 32, 0, campaign.Options{Parallelism: 4})
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: baseline diverged:\nserial   %+v\nparallel %+v", name, serial, parallel)
		}
	}
}

// TestConfirmStopAfter checks early stop end to end on a workload whose
// cycles reproduce almost every seed: the campaign must stop at the
// requested reproduction count with an identical summary at every
// parallelism.
func TestConfirmStopAfter(t *testing.T) {
	w, _ := workloads.ByName("dbcp")
	p1 := phase1Cycles(t, w)
	if len(p1.Cycles) == 0 {
		t.Fatal("dbcp reported no cycles")
	}
	cfg := harness.DefaultVariant().Fuzzer
	serial := confirmOne(w.Prog, p1.Cycles[0], cfg, 100,
		campaign.Options{Parallelism: 1, StopAfter: 3})
	if serial.Reproduced != 3 {
		t.Fatalf("serial stopped at %d reproductions, want 3 (summary %+v)", serial.Reproduced, serial)
	}
	if serial.Runs >= 100 || serial.Runs < 3 {
		t.Fatalf("serial consumed %d seeds", serial.Runs)
	}
	parallel := confirmOne(w.Prog, p1.Cycles[0], cfg, 100,
		campaign.Options{Parallelism: 4, StopAfter: 3})
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("early-stopped campaigns diverged:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestConfirmOnRunSeesEveryContributingRun checks the per-run hook of a
// single-cycle campaign fires once per consumed seed, in seed order,
// with the scheduler seed equal to the campaign seed and target 0, and
// agrees with the summary.
func TestConfirmOnRunSeesEveryContributingRun(t *testing.T) {
	w, _ := workloads.ByName("dbcp")
	p1 := phase1Cycles(t, w)
	if len(p1.Cycles) == 0 {
		t.Fatal("dbcp reported no cycles")
	}
	cfg := harness.DefaultVariant().Fuzzer
	var seeds []int
	reproduced := 0
	sum := confirmOne(w.Prog, p1.Cycles[0], cfg, 16, campaign.Options{
		Parallelism: 4,
		OnRun: func(r *obs.RunRecord) {
			if r.Target != 0 || r.SchedSeed != r.Seed {
				t.Errorf("seed %d: target %d, scheduler seed %d", r.Seed, r.Target, r.SchedSeed)
			}
			seeds = append(seeds, int(r.Seed))
			if r.Reproduced {
				reproduced++
			}
		},
	})
	if len(seeds) != 16 || sum.Runs != 16 {
		t.Fatalf("hook fired %d times for %d consumed seeds", len(seeds), sum.Runs)
	}
	for i, s := range seeds {
		if s != i {
			t.Fatalf("hook position %d got seed %d", i, s)
		}
	}
	if reproduced != sum.Reproduced {
		t.Errorf("hook counted %d reproductions, summary says %d", reproduced, sum.Reproduced)
	}
}
