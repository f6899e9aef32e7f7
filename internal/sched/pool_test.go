package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// acquireHeavy performs n acquire/release pairs over two nested locks
// with no per-iteration closures, so steady-state iterations exercise
// only the scheduler hot path.
func acquireHeavy(n int) func(*Ctx) {
	return func(c *Ctx) {
		a := c.New("Object", "pool:a")
		b := c.New("Object", "pool:b")
		for i := 0; i < n; i++ {
			c.Acquire(a, "pool:1")
			c.Acquire(b, "pool:2")
			c.Release(b, "pool:2")
			c.Release(a, "pool:1")
		}
	}
}

// TestPoolRunMatchesFresh pins the pool's core guarantee: a recycled
// shell produces results deeply equal to a fresh scheduler's, for both
// completing and deadlocking seeds, run after run, at one P and at
// several.
func TestPoolRunMatchesFresh(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pool := NewPool()
			for round := 0; round < 2; round++ {
				for seed := int64(0); seed < 40; seed++ {
					fresh := New(Options{Seed: seed}).Run(fig1(0))
					pooled := pool.Run(Options{Seed: seed}, fig1(0))
					if !reflect.DeepEqual(fresh, pooled) {
						t.Fatalf("round %d seed %d: pooled result differs\nfresh:  %+v\npooled: %+v",
							round, seed, fresh, pooled)
					}
				}
			}
		})
	}
}

// snapObserver retains every Acquire snapshot exactly as delivered,
// alongside deep copies taken at delivery time, so later mutation of a
// supposedly immutable snapshot is detectable.
type snapObserver struct {
	locksets [][]*object.Obj
	ctxs     []event.Context
	lockIDs  [][]uint64
	ctxCopy  []event.Context
}

func (o *snapObserver) OnEvent(ev Ev) {
	if ev.Kind != event.KindAcquire {
		return
	}
	o.locksets = append(o.locksets, ev.LockSet)
	ids := make([]uint64, len(ev.LockSet))
	for i, l := range ev.LockSet {
		ids[i] = l.ID
	}
	o.lockIDs = append(o.lockIDs, ids)
	o.ctxs = append(o.ctxs, ev.Context)
	o.ctxCopy = append(o.ctxCopy, ev.Context.Clone())
}

// TestPoolSnapshotsSurviveReuse drives several observed executions
// through one pool and then verifies every snapshot retained from every
// run still holds the values it was delivered with: the copy-on-write
// watermarks must protect snapshots across thread-shell reuse.
func TestPoolSnapshotsSurviveReuse(t *testing.T) {
	pool := NewPool()
	var observers []*snapObserver
	for seed := int64(0); seed < 8; seed++ {
		obs := &snapObserver{}
		observers = append(observers, obs)
		pool.Run(Options{Seed: seed, Observers: []Observer{obs}}, fig1(0))
	}
	for run, obs := range observers {
		if len(obs.locksets) == 0 {
			t.Fatalf("run %d: no acquire snapshots", run)
		}
		for i, ls := range obs.locksets {
			for j, l := range ls {
				if l.ID != obs.lockIDs[i][j] {
					t.Fatalf("run %d snapshot %d: lockset[%d] mutated to o%d, want o%d",
						run, i, j, l.ID, obs.lockIDs[i][j])
				}
			}
			if !obs.ctxs[i].Equal(obs.ctxCopy[i]) {
				t.Fatalf("run %d snapshot %d: context mutated to %v, want %v",
					run, i, obs.ctxs[i], obs.ctxCopy[i])
			}
		}
	}
}

// TestPoolAcquireAllocs is the hot-path regression guard: once the pool
// is warm, an acquire-heavy execution may allocate only per-run
// essentials (thread/lock objects, index snapshots, the Result), never
// per-event state. The pre-pool scheduler spent thousands of allocations
// on a run like this; the bound fails loudly if per-step or per-acquire
// allocation creeps back in.
func TestPoolAcquireAllocs(t *testing.T) {
	pool := NewPool()
	prog := acquireHeavy(100)
	pool.Run(Options{Seed: 1}, prog) // warm the shells
	avg := testing.AllocsPerRun(10, func() {
		pool.Run(Options{Seed: 1}, prog)
	})
	if avg > 60 {
		t.Errorf("acquire-heavy pooled run allocates %.0f objects, want <= 60", avg)
	}
}

// TestPoolLazyMaps pins the lazy-allocation satellite: a fresh scheduler
// must not allocate the latch or lock tables until something uses them.
func TestPoolLazyMaps(t *testing.T) {
	s := New(Options{Seed: 1})
	if s.locks != nil || s.latches != nil {
		t.Fatal("lock/latch maps allocated eagerly")
	}
	res := s.Run(func(c *Ctx) {
		c.Step("lazy:1")
	})
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if s.locks != nil || s.latches != nil {
		t.Fatal("lock/latch maps allocated by a lock-free run")
	}
}

// spawnJoin spawns n workers that each take one step, then joins them.
func spawnJoin(n int) func(*Ctx) {
	worker := func(c *Ctx) { c.Step("pool:work") }
	return func(c *Ctx) {
		ts := make([]*Thread, n)
		for i := range ts {
			ts[i] = c.Spawn("w", nil, "pool:spawn", worker)
		}
		for _, t := range ts {
			c.Join(t, "pool:join")
		}
	}
}

// spawnJoinAllocs is what a warm pooled spawnJoin(4) run allocates,
// per-run objects such as the spawned thread objects and the Result.
// Creating even one coroutine would exceed it.
const spawnJoinAllocs = 12

// TestPoolReusesCoroutines pins shell reuse: once the pool is warm, a
// run that spawns and joins four threads takes its five shells off the
// free list with their coroutines still parked, and creates none.
func TestPoolReusesCoroutines(t *testing.T) {
	pool := NewPool()
	prog := spawnJoin(4)
	pool.Run(Options{Seed: 1}, prog) // warm the shells
	warm := append([]*Thread(nil), *pool.shells...)
	avg := testing.AllocsPerRun(10, func() {
		pool.Run(Options{Seed: 1}, prog)
	})
	perCoro := testing.AllocsPerRun(10, func() {
		var th Thread
		th.startCoro()
		th.stop()
	})
	if perCoro < 1 {
		t.Fatalf("creating a coroutine allocates %.0f objects; the bound below cannot see one", perCoro)
	}
	if avg > spawnJoinAllocs {
		t.Errorf("warm pooled spawn/join run allocates %.0f objects, want <= %d (a fresh coroutine costs %.0f)",
			avg, spawnJoinAllocs, perCoro)
	}
	if got := *pool.shells; len(got) != len(warm) {
		t.Fatalf("pool holds %d shells after reuse, want %d", len(got), len(warm))
	}
	for _, th := range warm {
		if th.next == nil {
			t.Fatal("a pooled shell's coroutine exited between runs")
		}
	}
}
