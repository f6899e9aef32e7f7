package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dlfuzz"
	"dlfuzz/internal/event"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// probeReps is how many timed repetitions each probe makes after one
// warm-up repetition.
const probeReps = 7

// probe is one fixed micro-program that times a layer by itself. Each
// repetition runs the same operations, so its ns/op repeats run to run.
type probe struct {
	// ns and allocs name the probe's two metrics; unit is the ns
	// metric's unit and scale the nanoseconds in one unit.
	ns, allocs, unit string
	scale            float64
	// run makes one repetition and returns its operation count.
	run func() int
}

// Operation counts per repetition, sized so a repetition takes tens of
// milliseconds on a current core.
const (
	probeSteps      = 200000
	probeCrossSteps = 50000
	probeLockPairs  = 50000
	probeMessages   = 20000
	probeSpawns     = 5000
	probeDenseRuns  = 20
)

// runProbes runs every probe and returns its metrics.
func runProbes(root string) (map[string]metric, error) {
	ps, err := probes(root)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, p := range ps {
		ns, allocs := measureProbe(p.run)
		out[p.ns] = metric{ns / p.scale, p.unit}
		out[p.allocs] = metric{allocs, "count"}
	}
	return out, nil
}

// probes returns the layer probes. The dense.clf probe reads the
// program from root.
func probes(root string) ([]probe, error) {
	src, err := os.ReadFile(filepath.Join(root, "testdata", "dense.clf"))
	if err != nil {
		return nil, err
	}
	dense, err := dlfuzz.ParseCLF("testdata/dense.clf", string(src))
	if err != nil {
		return nil, err
	}
	denseBody := dense.Body()
	wide := igoodlock.WideRelation(64, 32, 2)
	return []probe{
		// One thread looping Step: every grant goes back to the thread
		// that asked, with no goroutine switch.
		{"sched.self_grant_ns", "sched.self_grant_allocs", "ns", 1, func() int {
			runProbe(nil, func(c *sched.Ctx) {
				for range probeSteps {
					c.Step("probe:step")
				}
			})
			return probeSteps
		}},
		// Two stepping threads under a policy that always switches, so
		// every grant is a cross-grant.
		{"sched.cross_grant_ns", "sched.allocs_per_step", "ns", 1, func() int {
			return runProbe(&alternate{}, func(c *sched.Ctx) {
				step := func(c *sched.Ctx) {
					for range probeCrossSteps / 2 {
						c.Step("probe:cross")
					}
				}
				a := c.Spawn("a", nil, "probe:spawn-a", step)
				b := c.Spawn("b", nil, "probe:spawn-b", step)
				c.Join(a, "probe:join-a")
				c.Join(b, "probe:join-b")
			}).Steps
		}},
		// Nested acquire/release of two monitors; an op is one
		// acquire/release pair.
		{"sched.acquire_release_ns", "sched.acquire_release_allocs", "ns", 1, func() int {
			runProbe(nil, func(c *sched.Ctx) {
				a, b := c.New("Object", "probe:a"), c.New("Object", "probe:b")
				for range probeLockPairs / 2 {
					c.Acquire(a, "probe:acq-a")
					c.Acquire(b, "probe:acq-b")
					c.Release(b, "probe:rel-b")
					c.Release(a, "probe:rel-a")
				}
			})
			return probeLockPairs
		}},
		// Unbuffered ping-pong between two threads; an op is one
		// rendezvous.
		{"sched.chan_rendezvous_ns", "sched.chan_rendezvous_allocs", "ns", 1, func() int {
			runProbe(nil, func(c *sched.Ctx) {
				ping, pong := c.NewChan(0, "probe:ping"), c.NewChan(0, "probe:pong")
				t := c.Spawn("echo", nil, "probe:spawn", func(c *sched.Ctx) {
					for range probeMessages / 2 {
						c.Send(pong, c.Recv(ping, "probe:recv-ping"), "probe:send-pong")
					}
				})
				for i := range probeMessages / 2 {
					c.Send(ping, i, "probe:send-ping")
					c.Recv(pong, "probe:recv-pong")
				}
				c.Join(t, "probe:join")
			})
			return probeMessages
		}},
		// Spawn a thread that takes one step, and join it. (A thread
		// whose body is empty never becomes joinable: its exit is posted
		// before its first grant.)
		{"sched.spawn_join_us", "sched.spawn_join_allocs", "us", 1e3, func() int {
			runProbe(nil, func(c *sched.Ctx) {
				for range probeSpawns {
					c.Join(c.Spawn("w", nil, "probe:spawn", func(c *sched.Ctx) { c.Step("probe:child") }), "probe:join")
				}
			})
			return probeSpawns
		}},
		// dense.clf on the bytecode VM under the plain random scheduler;
		// an op is one scheduler step.
		{"lang.dense_ns_per_step", "lang.dense_allocs_per_step", "ns", 1, func() int {
			steps := 0
			for seed := range int64(probeDenseRuns) {
				steps += dlfuzz.Run(denseBody, seed).Steps
			}
			return steps
		}},
		// One serial iGoodlock closure of the synthetic wide relation,
		// cycles of length 2.
		{"igoodlock.wide_closure_ms", "igoodlock.wide_closure_allocs", "ms", 1e6, func() int {
			igoodlock.Find(wide, igoodlock.WideConfig(2))
			return 1
		}},
	}, nil
}

// probeMaxSteps lets every probe run to completion.
const probeMaxSteps = 10 * probeSteps

// runProbe runs body as the main thread of one execution. Probes are
// fixed programs that always complete, so any other outcome is a bug.
func runProbe(pol sched.Policy, body func(*sched.Ctx)) *sched.Result {
	res := sched.New(sched.Options{Policy: pol, MaxSteps: probeMaxSteps}).Run(body)
	if res.Outcome != sched.Completed {
		panic(fmt.Sprintf("bench: probe ended in %s after %d steps", res.Outcome, res.Steps))
	}
	return res
}

// alternate is a policy that never grants the same thread twice in a
// row when another is enabled.
type alternate struct{ last event.TID }

func (a *alternate) Next(_ *sched.Scheduler, enabled []event.TID) event.TID {
	for _, t := range enabled {
		if t != a.last {
			a.last = t
			return t
		}
	}
	a.last = enabled[0]
	return a.last
}

// measureProbe runs one warm-up repetition and probeReps timed ones, and
// returns the fastest repetition's ns/op and the median allocs/op. A
// probe's work is fixed, so a busy host can only add time to it.
func measureProbe(run func() int) (nsPerOp, allocsPerOp float64) {
	run()
	var ns, allocs []float64
	var ms runtime.MemStats
	for range probeReps {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		ops := run()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(ms.Mallocs-mallocs)/float64(ops))
	}
	return slices.Min(ns), median(allocs)
}
