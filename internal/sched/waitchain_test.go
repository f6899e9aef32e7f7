package sched_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// program is one input to the wait-for walk tests.
type program struct {
	name string
	body func(*sched.Ctx)
}

// programs returns the Go workloads, the blocking suite and, on the VM,
// the CLF programs the globs match.
func programs(t *testing.T, globs ...string) []program {
	t.Helper()
	var ps []program
	for _, w := range append(workloads.All(), workloads.Blocking()...) {
		ps = append(ps, program{"go/" + w.Name, w.Prog})
	}
	for _, glob := range globs {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v (%d files)", glob, err, len(files))
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
			ps = append(ps, program{"vm/" + filepath.Base(f), lang.NewInterp(prog, io.Discard).Main()})
		}
	}
	return ps
}

// chainCheck is a uniform random policy that, before every decision,
// asks the chain walk and the test-only reference wait-for graph for
// the cycle through each alive thread blocked at an acquire, and
// records the first disagreement. last is the thread it granted last: the one whose next
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
// the reference graph's cycleFrom(poster) walks.
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
// check's chain walk to the reference wait-for graph: at every
// decision, from every thread blocked at an acquire, both find the same
// TID cycle or none; and every deadlock confirmed at an acquire is the
// graph's cycle from the blocking thread. It covers the Go workloads,
// the blocking suite and the curated CLF programs on the VM.
func TestCycleThroughMatchesWaitGraph(t *testing.T) {
	blocked, deadlocks := 0, 0
	for _, in := range programs(t, "../../testdata/*.clf") {
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

// TestFindDeadlockMatchesWaitGraph holds the stall-time deadlock check
// to the reference wait-for graph on stalled lock states built directly:
// the cycle it reports is the reference's first cycle, rotated to its
// smallest TID, and each edge's wanted lock is held by the next edge's
// thread. Named shapes pin the expected cycle; random functional graphs
// cover the rest.
func TestFindDeadlockMatchesWaitGraph(t *testing.T) {
	check := func(t *testing.T, wants []int) []event.TID {
		t.Helper()
		dl, graph := sched.StalledOnLocks(wants).StallCycles()
		var walk []event.TID
		if dl != nil {
			for i, e := range dl.Edges {
				walk = append(walk, e.Thread)
				next := dl.Edges[(i+1)%len(dl.Edges)]
				if !slices.Contains(next.Held, e.Want) {
					t.Fatalf("wants %v: edge %d wants o%d, which thread %d does not hold", wants, i, e.Want.ID, next.Thread)
				}
			}
		}
		if !slices.Equal(walk, graph) {
			t.Fatalf("wants %v: stall check %v, wait graph %v", wants, walk, graph)
		}
		return walk
	}
	for _, tc := range []struct {
		name  string
		wants []int // wants[i]: the lock thread i waits for; -1 none
		cycle []event.TID
	}{
		{"empty", nil, nil},
		{"simple", []int{1, 0}, []event.TID{0, 1}},
		{"no-cycle", []int{1, 2, -1}, nil},
		// Re-entrant acquires never wait: no self-edge, so no cycle.
		{"self-edge", []int{0, 0}, nil},
		// 5 -> 1 -> 2 -> 3 -> 1: the tail from 5 is not on the cycle.
		{"chain-into-cycle", []int{-1, 2, 3, 1, -1, 1}, []event.TID{1, 2, 3}},
		// Two disjoint cycles and a waiter chained onto the second.
		{"multiple", []int{-1, 2, 1, 4, 3, -1, -1, -1, -1, 3}, []event.TID{1, 2}},
		// Thread 0's tail reaches {5, 6} first, ahead of {1, 2}.
		{"tail-first", []int{5, 2, 1, -1, -1, 6, 5}, []event.TID{5, 6}},
		// Found from thread 0 as [3 2], reported from its smallest TID.
		{"rotated", []int{3, -1, 3, 2}, []event.TID{2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := check(t, tc.wants); !slices.Equal(got, tc.cycle) {
				t.Errorf("wants %v: cycle %v, want %v", tc.wants, got, tc.cycle)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		found := 0
		for range 500 {
			wants := make([]int, 1+rng.Intn(12))
			for i := range wants {
				wants[i] = rng.Intn(len(wants)+1) - 1
			}
			if check(t, wants) != nil {
				found++
			}
		}
		if found == 0 {
			t.Fatal("no random state held a cycle: the comparison has nothing to compare")
		}
	})
}

// TestStallFindsNoCycle checks the stall-time deadlock check on every
// stalled run of the Go workloads, the blocking suite, the curated CLF
// programs and the committed corpus: neither it nor the reference
// wait-for graph finds a lock cycle in the state the run stalled in,
// because the acquire that closes a cycle is caught when it is posted.
func TestStallFindsNoCycle(t *testing.T) {
	stalls := 0
	for _, in := range programs(t, "../../testdata/*.clf", "../../testdata/corpus/*.clf") {
		s := sched.NewShell()
		for seed := range int64(50) {
			var dl *sched.DeadlockInfo
			var graph []event.TID
			out := s.RunThen(sched.Options{Seed: seed, MaxSteps: 100_000}, in.body, func() { dl, graph = s.StallCycles() })
			if out != sched.Stall {
				continue
			}
			stalls++
			if dl != nil || graph != nil {
				t.Fatalf("%s seed %d stalled with a lock cycle: stall check %v, wait graph %v", in.name, seed, dl, graph)
			}
		}
	}
	t.Logf("%d stalled runs", stalls)
	if stalls == 0 {
		t.Fatal("no run stalled: the property has nothing to check")
	}
}
