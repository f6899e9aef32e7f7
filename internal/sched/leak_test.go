package sched_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dlfuzz/internal/campaign"
	"dlfuzz/internal/event"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// leakDepth is how deep every parked thread sits in Call/Sync (or VM)
// frames when its run ends, so teardown unwinds real stacks.
const leakDepth = 30

// nest runs inner under d levels of Call, each holding a fresh monitor.
func nest(c *sched.Ctx, d int, inner func()) {
	if d == 0 {
		inner()
		return
	}
	c.Call("nest", nil, "leak:call", func() {
		o := c.New("Object", "leak:new")
		c.Sync(o, "leak:sync", func() { nest(c, d-1, inner) })
	})
}

// parkForever spawns a thread that blocks deep in its stack on a latch
// nobody signals, with a deferred primitive call that must itself abort
// rather than post.
func parkForever(c *sched.Ctx) *sched.Thread {
	l := c.NewLatch("leak:latch")
	return c.Spawn("parked", nil, "leak:spawn", func(c *sched.Ctx) {
		nest(c, leakDepth, func() {
			defer c.Step("leak:deferred")
			c.Await(l, "leak:await")
		})
	})
}

// goDeadlock deadlocks on every schedule: each worker holds its first
// lock before it waits for the other's.
func goDeadlock(c *sched.Ctx) {
	a, b := c.New("Object", "leak:a"), c.New("Object", "leak:b")
	la, lb := c.NewLatch("leak:la"), c.NewLatch("leak:lb")
	worker := func(first, second *object.Obj, mine, theirs *sched.Latch) func(*sched.Ctx) {
		return func(c *sched.Ctx) {
			nest(c, leakDepth, func() {
				c.Sync(first, "leak:first", func() {
					c.Signal(mine, "leak:signal")
					c.Await(theirs, "leak:await")
					c.Sync(second, "leak:second", func() {})
				})
			})
		}
	}
	t1 := c.Spawn("T1", nil, "leak:t1", worker(a, b, la, lb))
	t2 := c.Spawn("T2", nil, "leak:t2", worker(b, a, lb, la))
	nest(c, leakDepth, func() {
		c.Join(t1, "leak:join")
		c.Join(t2, "leak:join")
	})
}

func goStall(c *sched.Ctx) {
	t := parkForever(c)
	nest(c, leakDepth, func() { c.Join(t, "leak:join") })
}

func goSpin(c *sched.Ctx) {
	parkForever(c)
	nest(c, leakDepth, func() {
		for {
			c.Step("leak:spin")
		}
	})
}

func goPanic(c *sched.Ctx) {
	parkForever(c)
	nest(c, leakDepth, func() { panic("workload panic") })
}

func goMisuse(c *sched.Ctx) {
	parkForever(c)
	o := c.New("Object", "leak:unheld")
	nest(c, leakDepth, func() { c.Release(o, "leak:release") })
}

// clfLeakSrc holds the same scenarios as CLF programs, each thread deep
// in VM frames with open sync blocks.
const clfLeakSrc = `
fn nest(d, body, a, b, x, y) {
    if d == 0 {
        if body == "deadlock" {
            sync (a) { signal x; await y; sync (b) { } }
        } else if body == "park" {
            await x;
        } else if body == "spin" {
            while true { work(1); }
        } else if body == "error" {
            var bad = a + 1;
        } else if body == "misuse" {
            close a;
            close a;
        }
        return 0;
    }
    var o = new Object;
    sync (o) { return nest(d - 1, body, a, b, x, y); }
}

fn main() {
    var a = new Object;
    var b = new Object;
    var x = newlatch;
    var y = newlatch;
    var mode = scenario();
    if mode == "deadlock" {
        var t1 = spawn nest(30, "deadlock", a, b, x, y);
        var t2 = spawn nest(30, "deadlock", b, a, y, x);
        join t1;
        join t2;
        return;
    }
    var parked = spawn nest(30, "park", a, b, x, y);
    if mode == "stall" {
        join parked;
    } else if mode == "misuse" {
        nest(30, "misuse", newchan, b, x, y);
    } else {
        nest(30, mode, a, b, x, y);
    }
}
`

func clfBody(t *testing.T, mode string) func(*sched.Ctx) {
	t.Helper()
	src := clfLeakSrc + fmt.Sprintf("fn scenario() { return %q; }\n", mode)
	prog, err := lang.Parse("leak.clf", src)
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	return lang.NewInterp(prog, nil).Main()
}

// panicPolicy is the random policy, except that decision n panics.
type panicPolicy struct{ n, taken int }

func (p *panicPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	p.taken++
	if p.taken == p.n {
		panic("policy panic")
	}
	return sched.RandomPolicy{}.Next(s, enabled)
}

// leakCase is one way a run can end. opts returns fresh options per
// run (policies carry state); panics means Run must panic, otherwise
// the run must end with outcome want.
type leakCase struct {
	name   string
	body   func(*sched.Ctx)
	opts   func() sched.Options
	want   sched.Outcome
	panics bool
}

func leakCases(t *testing.T) []leakCase {
	plain := func() sched.Options { return sched.Options{Seed: 1, MaxSteps: 2000} }
	policyAt := func(n int) func() sched.Options {
		return func() sched.Options {
			return sched.Options{Seed: 1, MaxSteps: 2000, Policy: &panicPolicy{n: n}}
		}
	}
	var cases []leakCase
	for _, be := range []struct {
		name string
		body func(mode string) func(*sched.Ctx)
	}{
		{"go", func(mode string) func(*sched.Ctx) {
			return map[string]func(*sched.Ctx){
				"deadlock": goDeadlock, "stall": goStall, "spin": goSpin,
				"error": goPanic, "misuse": goMisuse,
			}[mode]
		}},
		{"vm", func(mode string) func(*sched.Ctx) { return clfBody(t, mode) }},
	} {
		cases = append(cases,
			leakCase{name: be.name + "/deadlock", body: be.body("deadlock"), opts: plain, want: sched.Deadlock},
			leakCase{name: be.name + "/stall", body: be.body("stall"), opts: plain, want: sched.Stall},
			leakCase{name: be.name + "/steplimit", body: be.body("spin"), opts: plain, want: sched.StepLimit},
			leakCase{name: be.name + "/panic", body: be.body("error"), opts: plain, panics: true},
			leakCase{name: be.name + "/misuse", body: be.body("misuse"), opts: plain, panics: true},
			leakCase{name: be.name + "/policy-first", body: be.body("deadlock"), opts: policyAt(1), panics: true},
			leakCase{name: be.name + "/policy-later", body: be.body("deadlock"), opts: policyAt(150), panics: true},
		)
	}
	return cases
}

// runLeakCase executes one run of c with run and reports a mismatch
// with the case's expected ending.
func runLeakCase(c leakCase, run func(sched.Options, func(*sched.Ctx)) *sched.Result) (err error) {
	defer func() {
		r := recover()
		switch {
		case c.panics && r == nil:
			err = fmt.Errorf("%s: run did not panic", c.name)
		case !c.panics && r != nil:
			err = fmt.Errorf("%s: run panicked: %v", c.name, r)
		}
	}()
	res := run(c.opts(), c.body)
	if !c.panics && res.Outcome != c.want {
		return fmt.Errorf("%s: outcome %v, want %v", c.name, res.Outcome, c.want)
	}
	return nil
}

// settle waits for the goroutine count to return to base, collecting
// garbage so dropped pools run their cleanups.
func settle(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, baseline %d\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeardownLeaksNoGoroutines ends runs in every way a run can end —
// deadlock, stall, step limit, workload panic, misuse error, and a
// policy panic on the first and on a later decision — with every
// thread deep in Call/Sync or VM frames, and requires the goroutine
// count to return to its baseline after each: through a fresh
// scheduler, through a pool that is then dropped, and through
// campaigns of pooled workers at widths 1, 2 and 4.
func TestTeardownLeaksNoGoroutines(t *testing.T) {
	fresh := func(opts sched.Options, body func(*sched.Ctx)) *sched.Result {
		return sched.New(opts).Run(body)
	}
	for _, c := range leakCases(t) {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()

			if err := runLeakCase(c, fresh); err != nil {
				t.Fatal(err)
			}
			settle(t, "sched.New", base)

			func() {
				pool := sched.NewPool()
				for i := 0; i < 3; i++ {
					if err := runLeakCase(c, pool.Run); err != nil {
						t.Fatal(err)
					}
				}
			}()
			settle(t, "dropped pool", base)

			for _, width := range []int{1, 2, 4} {
				var errs []error
				campaign.RunWorkers(8, campaign.Options{Parallelism: width},
					func() func(int) error {
						pool := sched.NewPool()
						return func(int) error { return runLeakCase(c, pool.Run) }
					},
					nil,
					func(_ int, err error) {
						if err != nil {
							errs = append(errs, err)
						}
					})
				if len(errs) > 0 {
					t.Fatalf("width %d: %v", width, errs[0])
				}
				settle(t, fmt.Sprintf("campaign width %d", width), base)
			}
		})
	}
}
