package hb

import (
	"testing"
	"testing/quick"

	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/sched"
)

func TestVCLeq(t *testing.T) {
	cases := []struct {
		a, b VC
		want bool
	}{
		{VC{}, VC{}, true},
		{VC{1}, VC{2}, true},
		{VC{2}, VC{1}, false},
		{VC{1, 0}, VC{1}, true},     // trailing zeros ignored
		{VC{0, 1}, VC{5}, false},    // component beyond b's length
		{VC{1, 2}, VC{1, 2}, true},  // equality
		{VC{1, 2}, VC{2, 1}, false}, // incomparable
	}
	for _, c := range cases {
		if got := c.a.Leq(c.b); got != c.want {
			t.Errorf("%v.Leq(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOrdered(t *testing.T) {
	if !Ordered(VC{1}, VC{2}) || !Ordered(VC{2}, VC{1}) {
		t.Error("comparable clocks must be Ordered")
	}
	if Ordered(VC{1, 2}, VC{2, 1}) {
		t.Error("concurrent clocks must not be Ordered")
	}
}

func TestVCCloneIndependent(t *testing.T) {
	a := VC{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone aliases")
	}
}

func TestSpawnOrdersParentPrefixBeforeChild(t *testing.T) {
	var beforeSpawn, childClock, afterSpawn VC
	trackRunHelper := func(k *Tracker, c *sched.Ctx) {
		c.Step("pre:1")
		beforeSpawn = VC(k.Clock(0))
		child := c.Spawn("child", nil, "sp:1", func(c *sched.Ctx) {
			c.Step("child:1")
			childClock = VC(k.Clock(c.Thread().ID()))
		})
		c.Step("post:1")
		afterSpawn = VC(k.Clock(0))
		c.Join(child, "j:1")
	}
	k := NewTracker()
	s := sched.New(sched.Options{Seed: 1, Observers: []sched.Observer{k}})
	s.Run(func(c *sched.Ctx) { trackRunHelper(k, c) })

	if !beforeSpawn.Leq(childClock) {
		t.Errorf("pre-spawn parent %v should precede child %v", beforeSpawn, childClock)
	}
	if Ordered(afterSpawn, childClock) {
		t.Errorf("post-spawn parent %v should be concurrent with child %v", afterSpawn, childClock)
	}
}

func TestJoinOrdersChildBeforeParentSuffix(t *testing.T) {
	var childClock, afterJoin VC
	k := NewTracker()
	s := sched.New(sched.Options{Seed: 1, Observers: []sched.Observer{k}})
	s.Run(func(c *sched.Ctx) {
		child := c.Spawn("child", nil, "sp:1", func(c *sched.Ctx) {
			c.Step("child:1")
			childClock = VC(k.Clock(c.Thread().ID()))
		})
		c.Join(child, "j:1")
		c.Step("post:1")
		afterJoin = VC(k.Clock(0))
	})
	if !childClock.Leq(afterJoin) {
		t.Errorf("child %v should precede post-join parent %v", childClock, afterJoin)
	}
}

func TestLatchOrdersSignalBeforeAwaitee(t *testing.T) {
	var beforeSignal, afterAwait VC
	k := NewTracker()
	s := sched.New(sched.Options{Seed: 1, Observers: []sched.Observer{k}})
	s.Run(func(c *sched.Ctx) {
		l := c.NewLatch("l:1")
		child := c.Spawn("awaiter", nil, "sp:1", func(c *sched.Ctx) {
			c.Await(l, "aw:1")
			c.Step("after:1")
			afterAwait = VC(k.Clock(c.Thread().ID()))
		})
		c.Step("work:1")
		beforeSignal = VC(k.Clock(0))
		c.Signal(l, "sig:1")
		c.Join(child, "j:1")
	})
	if !beforeSignal.Leq(afterAwait) {
		t.Errorf("pre-signal %v should precede post-await %v", beforeSignal, afterAwait)
	}
}

// latchGuarded is the Section 5.4 pattern: an inverted lock pair whose
// second half only runs after a latch.
func latchGuarded(c *sched.Ctx) {
	p := c.New("Object", "p:1")
	q := c.New("Object", "q:2")
	l := c.NewLatch("l:3")
	c.Sync(p, "a:1", func() {
		c.Sync(q, "a:2", func() {})
	})
	c.Signal(l, "sig:1")
	child := c.Spawn("late", nil, "sp:1", func(c *sched.Ctx) {
		c.Await(l, "aw:1")
		c.Sync(q, "b:1", func() {
			c.Sync(p, "b:2", func() {})
		})
	})
	c.Join(child, "j:1")
}

// concurrentInversion is the same lock structure without the latch.
func concurrentInversion(c *sched.Ctx) {
	p := c.New("Object", "p:1")
	q := c.New("Object", "q:2")
	child := c.Spawn("other", nil, "sp:1", func(c *sched.Ctx) {
		c.Sync(q, "b:1", func() {
			c.Sync(p, "b:2", func() {})
		})
	})
	c.Work(20, "w:1")
	c.Sync(p, "a:1", func() {
		c.Sync(q, "a:2", func() {})
	})
	c.Join(child, "j:1")
}

// cyclesWithClocks runs Phase 1 manually with clocks attached.
func cyclesWithClocks(t *testing.T, prog func(*sched.Ctx)) []*igoodlock.Cycle {
	t.Helper()
	for seed := int64(1); seed < 30; seed++ {
		tracker := NewTracker()
		rec := lockset.NewRecorder().WithClocks(tracker)
		s := sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{tracker, rec}})
		if s.Run(prog).Outcome != sched.Completed {
			continue
		}
		return igoodlock.Find(rec.Deps(), igoodlock.DefaultConfig())
	}
	t.Fatal("no completed run")
	return nil
}

func TestProvablyFalseLatchGuarded(t *testing.T) {
	cycles := cyclesWithClocks(t, latchGuarded)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	if !ProvablyFalse(cycles[0]) {
		t.Error("latch-guarded cycle not proved false")
	}
}

func TestProvablyFalseKeepsConcurrentInversion(t *testing.T) {
	cycles := cyclesWithClocks(t, concurrentInversion)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	if ProvablyFalse(cycles[0]) {
		t.Error("concurrent inversion proved false")
	}
}

func TestProvablyFalseKeepsCyclesWithoutClocks(t *testing.T) {
	// Cycles recorded without a ClockSource must be kept conservatively
	// — even for the latch-guarded pattern ProvablyFalse would otherwise
	// prove false.
	var cycles []*igoodlock.Cycle
	for seed := int64(1); seed < 30 && cycles == nil; seed++ {
		rec := lockset.NewRecorder() // no clocks attached
		s := sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{rec}})
		if s.Run(latchGuarded).Outcome == sched.Completed {
			cycles = igoodlock.Find(rec.Deps(), igoodlock.DefaultConfig())
		}
	}
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	if ProvablyFalse(cycles[0]) {
		t.Error("clockless cycle proved false; it must stay plausible")
	}
}

// Properties of the vector-clock lattice operations.
func TestVCProperties(t *testing.T) {
	norm := func(raw []uint8) VC {
		v := make(VC, len(raw)%6)
		for i := range v {
			v[i] = uint64(raw[i] % 8)
		}
		return v
	}
	reflexive := func(raw []uint8) bool {
		v := norm(raw)
		return v.Leq(v)
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
	antisym := func(a, b []uint8) bool {
		va, vb := norm(a), norm(b)
		if va.Leq(vb) && vb.Leq(va) {
			// Equal up to trailing zeros.
			n := len(va)
			if len(vb) > n {
				n = len(vb)
			}
			for i := 0; i < n; i++ {
				var x, y uint64
				if i < len(va) {
					x = va[i]
				}
				if i < len(vb) {
					y = vb[i]
				}
				if x != y {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	transitive := func(a, b, c []uint8) bool {
		va, vb, vc := norm(a), norm(b), norm(c)
		if va.Leq(vb) && vb.Leq(vc) {
			return va.Leq(vc)
		}
		return true
	}
	if err := quick.Check(transitive, nil); err != nil {
		t.Error(err)
	}
}
