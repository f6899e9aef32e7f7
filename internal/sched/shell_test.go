package sched

import (
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
// through one shell and then verifies every snapshot retained from every
// run still holds the values it was delivered with: the copy-on-write
// watermarks must protect snapshots across thread-shell reuse.
func TestPoolSnapshotsSurviveReuse(t *testing.T) {
	shell := newShell()
	var observers []*snapObserver
	for seed := int64(0); seed < 8; seed++ {
		obs := &snapObserver{}
		observers = append(observers, obs)
		shell.Rerun(Options{Seed: seed, Observers: []Observer{obs}}, fig1(0))
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

// TestPoolAcquireAllocs is the hot-path regression guard: once a shell
// is warm, an acquire-heavy execution may allocate only the Result:
// objects and their indexes come from the shell's arena, and nothing
// is allocated per event. The pre-pool scheduler spent thousands of
// allocations on a run like this; the bound fails loudly if per-step
// or per-acquire allocation creeps back in.
func TestPoolAcquireAllocs(t *testing.T) {
	shell := newShell()
	prog := acquireHeavy(100)
	shell.Rerun(Options{Seed: 1}, prog) // warm the shell
	avg := testing.AllocsPerRun(10, func() {
		shell.Rerun(Options{Seed: 1}, prog)
	})
	t.Logf("%.0f allocations per warm acquire-heavy run", avg)
	if avg > 1 {
		t.Errorf("acquire-heavy run on a warm shell allocates %.0f objects, want <= 1", avg)
	}
}

// allocAt allocates n objects under depth nested calls, each call's
// receiver an object of the enclosing frame, so every object has a
// creator chain and a depth+1-entry execution index.
func allocAt(n, depth int) func(*Ctx) {
	var nest func(c *Ctx, recv *object.Obj, d int)
	nest = func(c *Ctx, recv *object.Obj, d int) {
		if d == 0 {
			for i := 0; i < n; i++ {
				c.New("Object", "warm:new")
			}
			return
		}
		c.Call("nest", recv, "warm:call", func() {
			nest(c, c.New("Recv", "warm:recv"), d-1)
		})
	}
	return func(c *Ctx) { nest(c, nil, depth) }
}

// TestWarmObjectAllocs pins the object arena: on a warm shell, a run
// allocating 256 objects makes as many allocations as one allocating
// 8, at call depth 0 and at depth 3, so objects and their execution
// indexes cost nothing per object.
func TestWarmObjectAllocs(t *testing.T) {
	for _, depth := range []int{0, 3} {
		var counts []float64
		for _, n := range []int{8, 256} {
			shell := newShell()
			prog := allocAt(n, depth)
			shell.Rerun(Options{Seed: 1}, prog) // warm the shell
			avg := testing.AllocsPerRun(10, func() {
				shell.Rerun(Options{Seed: 1}, prog)
			})
			if res := shell.Rerun(Options{Seed: 1}, prog); res.Allocated != uint64(n+depth+1) {
				t.Fatalf("depth %d: run allocated %d objects, want %d", depth, res.Allocated, n+depth+1)
			}
			counts = append(counts, avg)
		}
		t.Logf("depth %d: %.0f allocations per warm run of 8 objects, %.0f of 256", depth, counts[0], counts[1])
		if counts[0] != counts[1] {
			t.Errorf("depth %d: a warm run of 256 objects makes %.0f allocations, one of 8 makes %.0f", depth, counts[1], counts[0])
		}
	}
}

// TestPoolLazyMaps pins the lazy-allocation satellite: a brand-new shell
// must not allocate the latch or lock tables until something uses them.
func TestPoolLazyMaps(t *testing.T) {
	s := newShell()
	if s.locks != nil || s.latches != nil {
		t.Fatal("lock/latch maps allocated eagerly")
	}
	res := s.Rerun(Options{Seed: 1}, func(c *Ctx) {
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

// spawnJoinAllocs is what a spawnJoin(4) run on a warm shell allocates:
// the body's thread slice and the Result. The thread objects come from
// the shell's arena. Creating even one coroutine would exceed it.
const spawnJoinAllocs = 2

// TestPoolReusesCoroutines pins thread-shell reuse: once a scheduler
// shell is warm, a run that spawns and joins four threads takes its five
// thread shells off the parked list with their coroutines still parked,
// and creates none.
func TestPoolReusesCoroutines(t *testing.T) {
	shell := newShell()
	prog := spawnJoin(4)
	shell.Rerun(Options{Seed: 1}, prog) // warm the shell
	warm := append([]*Thread(nil), *shell.parked...)
	avg := testing.AllocsPerRun(10, func() {
		shell.Rerun(Options{Seed: 1}, prog)
	})
	perCoro := testing.AllocsPerRun(10, func() {
		var th Thread
		th.startCoro()
		th.stop()
	})
	if perCoro < 1 {
		t.Fatalf("creating a coroutine allocates %.0f objects; the bound below cannot see one", perCoro)
	}
	t.Logf("%.0f allocations per warm spawn/join run", avg)
	if avg > spawnJoinAllocs {
		t.Errorf("spawn/join run on a warm shell allocates %.0f objects, want <= %d (a fresh coroutine costs %.0f)",
			avg, spawnJoinAllocs, perCoro)
	}
	if got := *shell.parked; len(got) != len(warm) {
		t.Fatalf("shell parks %d thread shells after reuse, want %d", len(got), len(warm))
	}
	for _, th := range warm {
		if th.next == nil {
			t.Fatal("a parked thread shell's coroutine exited between runs")
		}
	}
}
