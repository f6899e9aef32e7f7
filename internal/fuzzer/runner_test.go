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
// allocation count. A warm fig1 run makes 20 allocations (the results
// and the deadlock report with its copied stacks); the bound fails
// loudly if the nil-hook paths or the policy's per-run state start
// allocating. Under the race detector sync.Pool drops puts at random,
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
	bound := 24.0
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
