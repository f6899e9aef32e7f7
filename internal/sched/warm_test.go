package sched_test

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dlfuzz/internal/lang"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// warmInput is one program of the warm-shell differentials, with the
// step bound it runs under (0 means the default) and the number of
// seeds TestPoolRunMatchesFresh runs it at.
type warmInput struct {
	name     string
	body     func(*sched.Ctx)
	maxSteps int
	seeds    int64
}

// warmInputs are programs that leave different state on a shell: the
// paper's Figure 1, a Go workload with locks, one with channels and
// locks, a CLF program on the VM, a run cut off by its step bound, one
// cut off inside a forced run with draws still owed to the RNG, and a
// run whose workload panics.
func warmInputs(t *testing.T) []warmInput {
	t.Helper()
	ins := []warmInput{{name: "go/fig1", body: sched.Fig1(0), seeds: 40}}
	for _, name := range []string{"lists", "lock-chan-mix"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		ins = append(ins, warmInput{name: "go/" + name, body: w.Prog, seeds: 8})
	}
	src, err := os.ReadFile("../../testdata/philosophers.clf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse("philosophers.clf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	return append(ins,
		warmInput{name: "vm/philosophers", body: lang.NewInterp(prog, io.Discard).Main(), seeds: 8},
		warmInput{name: "go/steplimit", body: goSpin, maxSteps: 300, seeds: 8},
		warmInput{name: "go/owed-draws", body: goOwedDraws, maxSteps: 300, seeds: 8},
		warmInput{name: "go/panic", body: goPanic, seeds: 8},
	)
}

// goOwedDraws races two steppers against main's long Work, which runs
// alone once they exit: a step bound inside that forced run ends the
// run with its draws still owed, and the next run on the shell must not
// read them.
func goOwedDraws(c *sched.Ctx) {
	for range 2 {
		c.Spawn("stepper", nil, "owed.main:1", func(c *sched.Ctx) { c.Work(20, "owed.stepper:2") })
	}
	c.Work(100_000, "owed.main:3")
}

// evCollector keeps every event of a run as delivered.
type evCollector struct{ evs []sched.Ev }

func (c *evCollector) OnEvent(ev sched.Ev) { c.evs = append(c.evs, ev) }

// warmRun is everything a run shows its caller: the result, or the
// value Run panicked with, and the event stream.
type warmRun struct {
	res      *sched.Result
	panicked any
	events   []sched.Ev
}

// observe runs in at seed through run with an event collector attached.
func observe(run func(sched.Options, func(*sched.Ctx)) *sched.Result, in warmInput, seed int64) (r warmRun) {
	col := &evCollector{}
	defer func() {
		r.panicked = recover()
		r.events = col.evs
	}()
	r.res = run(sched.Options{Seed: seed, MaxSteps: in.maxSteps, Observers: []sched.Observer{col}}, in.body)
	return r
}

// newRun runs through the warm set, as every caller does.
func newRun(opts sched.Options, body func(*sched.Ctx)) *sched.Result {
	return sched.New(opts).Run(body)
}

// diffRuns describes how got differs from want, or returns "".
func diffRuns(got, want warmRun) string {
	if !reflect.DeepEqual(got.res, want.res) {
		return fmt.Sprintf("result %+v, want %+v", got.res, want.res)
	}
	if !reflect.DeepEqual(got.panicked, want.panicked) {
		return fmt.Sprintf("panic %v, want %v", got.panicked, want.panicked)
	}
	for i := 0; i < len(got.events) && i < len(want.events); i++ {
		if !reflect.DeepEqual(got.events[i], want.events[i]) {
			return fmt.Sprintf("event %d: %#v\nwant %#v", i, got.events[i], want.events[i])
		}
	}
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("%d events, want %d", len(got.events), len(want.events))
	}
	return ""
}

// TestPoolRunMatchesFresh pins the warm shell's core guarantee: a
// recycled shell, warmed by every other program in turn, produces
// results and event streams deeply equal to a brand-new shell's, round
// after round, at one P and at several. Each run goes both through one
// shell kept out of the warm set and through sched.New.
func TestPoolRunMatchesFresh(t *testing.T) {
	inputs := warmInputs(t)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			warm := sched.NewShell()
			for round := 0; round < 2; round++ {
				for _, in := range inputs {
					for seed := int64(0); seed < in.seeds; seed++ {
						want := observe(sched.NewShell().Rerun, in, seed)
						if d := diffRuns(observe(warm.Rerun, in, seed), want); d != "" {
							t.Fatalf("round %d, %s seed %d: warm shell differs from a brand-new one: %s", round, in.name, seed, d)
						}
						if d := diffRuns(observe(newRun, in, seed), want); d != "" {
							t.Fatalf("round %d, %s seed %d: sched.New differs from a brand-new shell: %s", round, in.name, seed, d)
						}
					}
				}
			}
		})
	}
}

// TestWarmSetConcurrentRuns runs different programs and seeds through
// sched.New on 8 goroutines at once, so shells move between goroutines
// through the warm set, and requires every run to equal the serial one
// (run under -race in CI).
func TestWarmSetConcurrentRuns(t *testing.T) {
	inputs := warmInputs(t)
	const goroutines, seeds = 8, 4
	want := make([][]warmRun, goroutines)
	for g := range want {
		for s := 0; s < seeds; s++ {
			want[g] = append(want[g], observe(newRun, inputs[g%len(inputs)], int64(g*seeds+s)))
		}
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					in := inputs[g%len(inputs)]
					for round := 0; round < 3; round++ {
						for s := 0; s < seeds; s++ {
							if d := diffRuns(observe(newRun, in, int64(g*seeds+s)), want[g][s]); d != "" {
								t.Errorf("goroutine %d, %s seed %d: concurrent run differs from the serial one: %s", g, in.name, g*seeds+s, d)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
