package fuzzer

import (
	"reflect"
	"testing"

	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// TestRunnerMatchesRun pins the Runner's guarantee: its recycled policy
// shell must produce run results deeply equal to the package-level Run's
// fresh policy, seed by seed, across two back-to-back sweeps on the same
// shell.
func TestRunnerMatchesRun(t *testing.T) {
	cycles := phase1(t, fig1, igoodlock.DefaultConfig())
	if len(cycles) == 0 {
		t.Fatal("no cycles")
	}
	cfg := DefaultConfig()
	r := NewRunner()
	for sweep := 0; sweep < 2; sweep++ {
		for seed := int64(0); seed < 25; seed++ {
			fresh := Run(fig1, cycles[0], cfg, seed, 0)
			pooled := r.Run(fig1, cycles[0], cfg, seed, 0)
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatalf("sweep %d seed %d: pooled run differs\nfresh:  %+v\npooled: %+v",
					sweep, seed, fresh, pooled)
			}
		}
	}
}

// TestRunnerDisabledHooksAllocs guards the observability layer's
// zero-cost-when-off contract at the fuzzer level: a pooled checker run
// with no hooks installed (the default after Reset) must stay at its
// allocation count. A warm fig1 run makes 10 allocations (the results
// and the deadlock report with its copied stacks and objects); the
// bound fails loudly if the nil-hook paths or the policy's per-run
// state start allocating. Under the race detector sync.Pool drops puts at random,
// so warm shells are rebuilt at random and only a loose bound holds.
func TestRunnerDisabledHooksAllocs(t *testing.T) {
	cycles := phase1(t, fig1, igoodlock.DefaultConfig())
	if len(cycles) == 0 {
		t.Fatal("no cycles")
	}
	cfg := DefaultConfig()
	r := NewRunner()
	r.Run(fig1, cycles[0], cfg, 1, 0) // warm the shells
	avg := testing.AllocsPerRun(10, func() {
		r.Run(fig1, cycles[0], cfg, 1, 0)
	})
	t.Logf("%.0f allocations per hook-free pooled run", avg)
	bound := 10.0
	if raceEnabled {
		bound = 600
	}
	if avg > bound {
		t.Errorf("hook-free pooled run allocates %.0f objects, want <= %.0f", avg, bound)
	}
}

// TestRunnerRetargets checks that one Runner can switch programs and
// target cycles mid-stream without leaking pause/yield state between
// targets: each result must equal a fresh single-use run against the
// same target.
func TestRunnerRetargets(t *testing.T) {
	type target struct {
		prog func(*sched.Ctx)
		cyc  *igoodlock.Cycle
	}
	var targets []target
	for _, prog := range []func(*sched.Ctx){fig1, fig1Third} {
		for _, cyc := range phase1(t, prog, igoodlock.DefaultConfig()) {
			targets = append(targets, target{prog, cyc})
		}
	}
	if len(targets) < 2 {
		t.Fatalf("want >= 2 targets, got %d", len(targets))
	}
	cfg := DefaultConfig()
	r := NewRunner()
	for seed := int64(0); seed < 20; seed++ {
		tg := targets[seed%int64(len(targets))]
		fresh := Run(tg.prog, tg.cyc, cfg, seed, 0)
		pooled := r.Run(tg.prog, tg.cyc, cfg, seed, 0)
		if !reflect.DeepEqual(fresh, pooled) {
			t.Fatalf("seed %d: retargeted pooled run differs", seed)
		}
	}
}

// TestKeyRenderAllocs pins DeadlockKey and CycleKey, with and without
// contexts, at one allocation per call — the returned string: the
// render buffers come from a pool. Under the race detector sync.Pool
// drops puts at random, so the bound cannot hold there.
func TestKeyRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	cycles := phase1(t, fig1, igoodlock.DefaultConfig())
	if len(cycles) == 0 {
		t.Fatal("no cycles")
	}
	var dl *sched.DeadlockInfo
	for seed := int64(0); dl == nil && seed < 100; seed++ {
		if res := Run(fig1, cycles[0], DefaultConfig(), seed, 0); res.Result.Outcome == sched.Deadlock {
			dl = res.Result.Deadlock
		}
	}
	if dl == nil {
		t.Fatal("no deadlock in 100 runs")
	}
	for _, useContext := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseContext = useContext
		for _, render := range []struct {
			name string
			f    func()
		}{
			{"DeadlockKey", func() { DeadlockKey(dl, cfg) }},
			{"CycleKey", func() { CycleKey(cycles[0], cfg) }},
		} {
			if n := testing.AllocsPerRun(100, render.f); n != 1 {
				t.Errorf("%s (context %v): %.0f allocations per call, want 1", render.name, useContext, n)
			}
		}
	}
}
