package sched_test

import (
	"runtime"
	"testing"

	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// nopObserver subscribes to the event stream, which makes every event
// publish lock- and context-stack snapshots.
type nopObserver struct{}

func (nopObserver) OnEvent(sched.Ev) {}

// TestPooledCopyOnWriteStaysBounded runs 1000 observed pooled runs of
// lists. Every published snapshot raises a thread's copy-on-write
// watermark, so the next push copies the stack. A pooled shell keeps
// its array across runs; sizing that copy from the old capacity grew
// the capacity by one on every copy, forever, and made each later copy
// allocate the whole grown array. The copy must be sized from the live
// stack: shell capacities stay bounded and bytes per run stay flat.
func TestPooledCopyOnWriteStaysBounded(t *testing.T) {
	w, ok := workloads.ByName("lists")
	if !ok {
		t.Fatal("workload lists missing")
	}
	pool := sched.NewPool()
	observers := []sched.Observer{nopObserver{}}
	run := func(i int) {
		pool.Run(sched.Options{Seed: int64(i % 10), Observers: observers}, w.Prog)
	}
	// window runs 100 runs (ten passes over the same ten seeds) and
	// returns the bytes and allocations they took.
	window := func(from int) (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := from; i < from+100; i++ {
			run(i)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	for i := 0; i < 100; i++ {
		run(i)
	}
	earlyBytes, earlyMallocs := window(100)
	for i := 200; i < 900; i++ {
		run(i)
	}
	lateBytes, lateMallocs := window(900)

	const maxCap = 64
	locks, ctxs := pool.ShellStackCaps()
	for i := range locks {
		if locks[i] > maxCap || ctxs[i] > maxCap {
			t.Errorf("shell %d: lock-stack cap %d, context-stack cap %d after 1000 runs, want <= %d",
				i, locks[i], ctxs[i], maxCap)
		}
	}
	// The two windows replay the same seeds, so a warm pool spends the
	// same per run; allow a little for runtime noise.
	if lateBytes > earlyBytes+earlyBytes/10 {
		t.Errorf("bytes per 100 runs grew from %d (runs 100-199) to %d (runs 900-999)", earlyBytes, lateBytes)
	}
	if lateMallocs > earlyMallocs+earlyMallocs/10 {
		t.Errorf("allocations per 100 runs grew from %d to %d", earlyMallocs, lateMallocs)
	}
	t.Logf("per 100 runs: %d -> %d bytes, %d -> %d allocations; caps %v %v",
		earlyBytes, lateBytes, earlyMallocs, lateMallocs, locks, ctxs)
}
