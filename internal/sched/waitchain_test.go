package sched_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// chainCheck is a uniform random policy that, before every decision,
// asks the chain walk and the wait-for graph for the cycle through each
// alive thread blocked at an acquire, and records the first
// disagreement. last is the thread it granted last: the one whose next
// acquire can close a cycle.
type chainCheck struct {
	blocked int
	last    event.TID
	diff    string
}

func (c *chainCheck) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	for _, tid := range s.AliveTIDs() {
		if s.PendingRef(tid).Kind != event.KindAcquire || s.Enabled(tid) {
			continue
		}
		c.blocked++
		if walk, graph := s.WaitCycles(tid); !slices.Equal(walk, graph) && c.diff == "" {
			c.diff = fmt.Sprintf("step %d, thread %d: chain walk %v, wait graph %v", s.Steps(), tid, walk, graph)
		}
	}
	c.last = enabled[s.Rand().Intn(len(enabled))]
	return c.last
}

// checkDeadlock verifies a deadlock the scheduler confirmed the moment
// an acquire blocked: the cycle starts at that acquire's thread, and
// each edge's wanted lock is held by the next edge's thread — the cycle
// CycleFrom(poster) walks in the functional wait-for graph.
func checkDeadlock(dl *sched.DeadlockInfo, poster event.TID) string {
	if dl.Edges[0].Thread != poster {
		return fmt.Sprintf("cycle starts at thread %d, not the blocking thread %d", dl.Edges[0].Thread, poster)
	}
	seen := map[event.TID]bool{}
	for i, e := range dl.Edges {
		if seen[e.Thread] {
			return fmt.Sprintf("thread %d repeats in the cycle", e.Thread)
		}
		seen[e.Thread] = true
		next := dl.Edges[(i+1)%len(dl.Edges)]
		if !slices.Contains(next.Held, e.Want) {
			return fmt.Sprintf("edge %d wants o%d, which thread %d does not hold", i, e.Want.ID, next.Thread)
		}
	}
	return ""
}

// TestCycleThroughMatchesWaitGraph holds the acquire-time deadlock
// check's chain walk to the wait-for graph it replaced: at every
// decision, from every thread blocked at an acquire, both find the same
// TID cycle or none; and every deadlock confirmed at an acquire is the
// graph's cycle from the blocking thread. It covers the Go workloads,
// the blocking suite and the curated CLF programs on the VM.
func TestCycleThroughMatchesWaitGraph(t *testing.T) {
	type input struct {
		name string
		body func(*sched.Ctx)
	}
	var ins []input
	for _, w := range append(workloads.All(), workloads.Blocking()...) {
		ins = append(ins, input{"go/" + w.Name, w.Prog})
	}
	files, err := filepath.Glob("../../testdata/*.clf")
	if err != nil || len(files) == 0 {
		t.Fatalf("curated programs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(filepath.Base(f), string(src))
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{"vm/" + filepath.Base(f), lang.NewInterp(prog, io.Discard).Main()})
	}
	blocked, deadlocks := 0, 0
	for _, in := range ins {
		for seed := range int64(100) {
			c := &chainCheck{last: event.NoThread}
			res := sched.New(sched.Options{Seed: seed, Policy: c, MaxSteps: 100_000}).Run(in.body)
			if c.diff != "" {
				t.Fatalf("%s seed %d: %s", in.name, seed, c.diff)
			}
			blocked += c.blocked
			if res.Outcome == sched.Deadlock {
				if d := checkDeadlock(res.Deadlock, c.last); d != "" {
					t.Fatalf("%s seed %d: %s: %v", in.name, seed, d, res.Deadlock)
				}
				deadlocks++
			}
		}
	}
	t.Logf("%d blocked-thread checks, %d deadlocks", blocked, deadlocks)
	if blocked == 0 || deadlocks == 0 {
		t.Fatalf("%d blocked-thread checks, %d deadlocks: the comparison has nothing to compare", blocked, deadlocks)
	}
}
