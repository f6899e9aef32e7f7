package sched

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// TestChanUnbufferedRendezvous: a plain producer/consumer handshake on
// an unbuffered channel completes and delivers values in order.
func TestChanUnbufferedRendezvous(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		var got []int
		res := New(Options{Seed: seed}).Run(func(c *Ctx) {
			ch := c.NewChan(0, "t.clf:1")
			prod := c.Spawn("prod", nil, "t.clf:2", func(c *Ctx) {
				for i := 0; i < 3; i++ {
					c.Send(ch, i, "t.clf:3")
				}
			})
			for i := 0; i < 3; i++ {
				got = append(got, c.Recv(ch, "t.clf:5").(int))
			}
			c.Join(prod, "t.clf:6")
		})
		if res.Outcome != Completed {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("seed %d: received %v", seed, got)
		}
	}
}

// TestChanBufferedFIFO: a buffered channel holds values without a
// receiver, delivers FIFO, and recv on a closed drained channel
// returns nil.
func TestChanBufferedFIFO(t *testing.T) {
	res := New(Options{Seed: 1}).Run(func(c *Ctx) {
		ch := c.NewChan(2, "t.clf:1")
		c.Send(ch, "a", "t.clf:2")
		c.Send(ch, "b", "t.clf:3")
		if ch.Len() != 2 {
			t.Errorf("Len = %d, want 2", ch.Len())
		}
		if v := c.Recv(ch, "t.clf:4"); v != "a" {
			t.Errorf("first recv = %v, want a", v)
		}
		c.Close(ch, "t.clf:5")
		if v := c.Recv(ch, "t.clf:6"); v != "b" {
			t.Errorf("second recv = %v, want b", v)
		}
		if v := c.Recv(ch, "t.clf:7"); v != nil {
			t.Errorf("drained recv = %v, want nil", v)
		}
	})
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

// TestChanCloseWakesReceivers: receivers blocked on an open channel all
// unblock (with nil) once it is closed.
func TestChanCloseWakesReceivers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := New(Options{Seed: seed}).Run(func(c *Ctx) {
			ch := c.NewChan(0, "t.clf:1")
			var ts []*Thread
			for i := 0; i < 3; i++ {
				ts = append(ts, c.Spawn("r", nil, "t.clf:2", func(c *Ctx) {
					c.Recv(ch, "t.clf:3")
				}))
			}
			c.Close(ch, "t.clf:4")
			for _, th := range ts {
				c.Join(th, "t.clf:5")
			}
		})
		if res.Outcome != Completed {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
	}
}

// TestWaitGroupCompletes: Add/Done/Wait in the canonical pattern.
func TestWaitGroupCompletes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := New(Options{Seed: seed}).Run(func(c *Ctx) {
			wg := c.NewWaitGroup("t.clf:1")
			c.WGAdd(wg, 2, "t.clf:2")
			for i := 0; i < 2; i++ {
				c.Spawn("w", nil, "t.clf:3", func(c *Ctx) {
					c.Work(3, "t.clf:4")
					c.WGDone(wg, "t.clf:5")
				})
			}
			c.WGWait(wg, "t.clf:6")
			if wg.Count() != 0 {
				t.Errorf("count = %d after wait", wg.Count())
			}
		})
		if res.Outcome != Completed {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
	}
}

// TestChanTotalDeadlock: two threads sending to each other on
// unbuffered channels, with main joining — every thread is stuck, a
// total blocking deadlock, reported identically on every seed.
func TestChanTotalDeadlock(t *testing.T) {
	prog := func(c *Ctx) {
		a := c.NewChan(0, "t.clf:1")
		b := c.NewChan(0, "t.clf:2")
		t1 := c.Spawn("t1", nil, "t.clf:3", func(c *Ctx) {
			c.Send(a, 1, "t.clf:4")
			c.Recv(b, "t.clf:5")
		})
		t2 := c.Spawn("t2", nil, "t.clf:6", func(c *Ctx) {
			c.Send(b, 2, "t.clf:7")
			c.Recv(a, "t.clf:8")
		})
		c.Join(t1, "t.clf:9")
		c.Join(t2, "t.clf:10")
	}
	var key string
	for seed := int64(0); seed < 10; seed++ {
		res := New(Options{Seed: seed}).Run(prog)
		if res.Outcome != Stall {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
		if res.Blocked == nil {
			t.Fatalf("seed %d: no blocked verdict", seed)
		}
		if res.Blocked.Partial {
			t.Errorf("seed %d: verdict partial, want total: %v", seed, res.Blocked)
		}
		if n := len(res.Blocked.Threads); n != 3 {
			t.Errorf("seed %d: %d blocked threads, want 3 (main + t1 + t2)", seed, n)
		}
		if key == "" {
			key = res.Blocked.Key()
		} else if k := res.Blocked.Key(); k != key {
			t.Errorf("seed %d: key %q != %q", seed, k, key)
		}
	}
	if !strings.HasPrefix(key, "total:") {
		t.Errorf("key %q not total", key)
	}
}

// TestChanPartialDeadlock: main receives once from two competing
// unbuffered senders and exits; the loser is stuck forever while the
// rest of the program completed — a partial deadlock.
func TestChanPartialDeadlock(t *testing.T) {
	prog := func(c *Ctx) {
		ch := c.NewChan(0, "t.clf:1")
		for i := 0; i < 2; i++ {
			c.Spawn("s", nil, "t.clf:2", func(c *Ctx) {
				c.Send(ch, 1, "t.clf:3")
			})
		}
		c.Recv(ch, "t.clf:4")
	}
	for seed := int64(0); seed < 10; seed++ {
		res := New(Options{Seed: seed}).Run(prog)
		if res.Outcome != Stall {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
		if res.Blocked == nil || !res.Blocked.Partial {
			t.Fatalf("seed %d: want partial verdict, got %v", seed, res.Blocked)
		}
		if n := len(res.Blocked.Threads); n != 1 {
			t.Errorf("seed %d: %d blocked threads, want 1", seed, n)
		}
		if k := res.Blocked.Threads[0].Kind; k != BlockChanSend {
			t.Errorf("seed %d: kind %v, want send", seed, k)
		}
	}
}

// TestWGMiscountPartialDeadlock: Add(2) with one worker leaves main
// blocked in Wait forever after the worker exits.
func TestWGMiscountPartialDeadlock(t *testing.T) {
	res := New(Options{Seed: 3}).Run(func(c *Ctx) {
		wg := c.NewWaitGroup("t.clf:1")
		c.WGAdd(wg, 2, "t.clf:2")
		c.Spawn("w", nil, "t.clf:3", func(c *Ctx) {
			c.WGDone(wg, "t.clf:4")
		})
		c.WGWait(wg, "t.clf:5")
	})
	if res.Outcome != Stall || res.Blocked == nil {
		t.Fatalf("outcome %v blocked %v", res.Outcome, res.Blocked)
	}
	if !res.Blocked.Partial {
		t.Errorf("want partial (worker exited): %v", res.Blocked)
	}
	if res.Blocked.Threads[0].Kind != BlockWGWait {
		t.Errorf("kind %v, want wg-wait", res.Blocked.Threads[0].Kind)
	}
}

// TestLockChanMixedStall: one thread holds a lock and blocks on a recv
// nobody will serve; another wants the lock; main joins both. No lock
// *cycle* exists, so Algorithm 4 stays silent — the blocked classifier
// must still call all three threads stuck.
func TestLockChanMixedStall(t *testing.T) {
	res := New(Options{Seed: 0}).Run(func(c *Ctx) {
		l := c.New("Lock", "t.clf:1")
		ch := c.NewChan(0, "t.clf:2")
		ord := c.NewChan(1, "t.clf:3")
		t1 := c.Spawn("t1", nil, "t.clf:4", func(c *Ctx) {
			c.Sync(l, "t.clf:5", func() {
				c.Send(ord, 1, "t.clf:6") // buffered: t2 may now try the lock
				c.Recv(ch, "t.clf:7")
			})
		})
		t2 := c.Spawn("t2", nil, "t.clf:8", func(c *Ctx) {
			c.Recv(ord, "t.clf:9")
			c.Sync(l, "t.clf:10", func() {})
		})
		c.Join(t1, "t.clf:11")
		c.Join(t2, "t.clf:12")
	})
	if res.Outcome != Stall || res.Blocked == nil {
		t.Fatalf("outcome %v blocked %v", res.Outcome, res.Blocked)
	}
	if res.Blocked.Partial {
		t.Errorf("want total: %v", res.Blocked)
	}
	kinds := map[BlockKind]int{}
	for _, bt := range res.Blocked.Threads {
		kinds[bt.Kind]++
	}
	if kinds[BlockChanRecv] != 1 || kinds[BlockAcquire] != 1 || kinds[BlockJoin] != 1 {
		t.Errorf("kinds %v, want one each of recv/acquire/join", kinds)
	}
}

// TestStepLimitSoundness: a spinning runner means a blocked WGWait
// *could* still be released, so a step-limited run must not flag it;
// but a join on a thread joined to itself-style chain is flagged.
func TestStepLimitSoundness(t *testing.T) {
	// Runner spins; main waits on a WaitGroup the runner could, for all
	// the analysis knows, still Done. Not provably stuck.
	res := New(Options{Seed: 0, MaxSteps: 200}).Run(func(c *Ctx) {
		wg := c.NewWaitGroup("t.clf:1")
		c.WGAdd(wg, 1, "t.clf:2")
		c.Spawn("spin", nil, "t.clf:3", func(c *Ctx) {
			for {
				c.Step("t.clf:4")
			}
		})
		c.WGWait(wg, "t.clf:5")
	})
	if res.Outcome != StepLimit {
		t.Fatalf("outcome %v, want step-limit", res.Outcome)
	}
	if res.Blocked != nil {
		t.Errorf("multi-satisfier wait flagged at step limit: %v", res.Blocked)
	}

	// Same spinning runner, but two threads joined on each other: a
	// sole-unblocker cycle no future schedule can break. Flagged even
	// though the run was cut off.
	res = New(Options{Seed: 0, MaxSteps: 400}).Run(func(c *Ctx) {
		ch := c.NewChan(0, "t.clf:1")
		var t1, t2 *Thread
		t1 = c.Spawn("t1", nil, "t.clf:2", func(c *Ctx) {
			c.Recv(ch, "t.clf:3") // wait until t2 exists
			c.Join(t2, "t.clf:4")
		})
		t2 = c.Spawn("t2", nil, "t.clf:5", func(c *Ctx) {
			c.Join(t1, "t.clf:6")
		})
		c.Send(ch, 0, "t.clf:7")
		for {
			c.Step("t.clf:8")
		}
	})
	if res.Outcome != StepLimit {
		t.Fatalf("outcome %v, want step-limit", res.Outcome)
	}
	if res.Blocked == nil || !res.Blocked.Partial || len(res.Blocked.Threads) != 2 {
		t.Fatalf("join cycle not flagged as partial: %v", res.Blocked)
	}
}

// TestSendClosedMisuse: send on a closed channel aborts the run with a
// MisuseError carrying the send site.
func TestSendClosedMisuse(t *testing.T) {
	defer func() {
		r := recover()
		me, ok := r.(*MisuseError)
		if !ok {
			t.Fatalf("recovered %v, want *MisuseError", r)
		}
		if me.Loc != "t.clf:3" {
			t.Errorf("Loc = %s, want t.clf:3", me.Loc)
		}
	}()
	New(Options{Seed: 0}).Run(func(c *Ctx) {
		ch := c.NewChan(1, "t.clf:1")
		c.Close(ch, "t.clf:2")
		c.Send(ch, 1, "t.clf:3")
	})
}

// TestDoubleCloseMisuse and negative-counter misuse.
func TestDoubleCloseMisuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(*Ctx)
	}{
		{"close-closed", func(c *Ctx) {
			ch := c.NewChan(0, "t.clf:1")
			c.Close(ch, "t.clf:2")
			c.Close(ch, "t.clf:3")
		}},
		{"wg-negative", func(c *Ctx) {
			wg := c.NewWaitGroup("t.clf:1")
			c.WGDone(wg, "t.clf:2")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if _, ok := recover().(*MisuseError); !ok {
					t.Fatalf("want *MisuseError panic")
				}
			}()
			New(Options{Seed: 0}).Run(tc.body)
		})
	}
}

// TestBlockingDeterminism: the blocked verdict, like everything else,
// is a pure function of the seed — and runs on a warm shell agree with
// runs on brand-new ones.
func TestBlockingDeterminism(t *testing.T) {
	prog := func(c *Ctx) {
		ch := c.NewChan(0, "t.clf:1")
		done := c.NewChan(0, "t.clf:2")
		c.Spawn("s1", nil, "t.clf:3", func(c *Ctx) {
			c.Send(ch, 1, "t.clf:4")
			c.Send(done, 1, "t.clf:5")
		})
		c.Spawn("s2", nil, "t.clf:6", func(c *Ctx) {
			c.Send(ch, 2, "t.clf:7")
			c.Send(done, 2, "t.clf:8")
		})
		c.Recv(ch, "t.clf:9")
		c.Recv(done, "t.clf:10")
	}
	warm := newShell()
	for seed := int64(0); seed < 20; seed++ {
		a := newShell().Rerun(Options{Seed: seed}, prog)
		b := warm.Rerun(Options{Seed: seed}, prog)
		if a.Outcome != b.Outcome {
			t.Fatalf("seed %d: brand-new %v warm %v", seed, a.Outcome, b.Outcome)
		}
		if (a.Blocked == nil) != (b.Blocked == nil) {
			t.Fatalf("seed %d: blocked mismatch %v vs %v", seed, a.Blocked, b.Blocked)
		}
		if a.Blocked != nil && a.Blocked.Key() != b.Blocked.Key() {
			t.Errorf("seed %d: keys %q vs %q", seed, a.Blocked.Key(), b.Blocked.Key())
		}
	}
}

// TestBlockedEventStream: channel and WaitGroup operations emit events
// with the owning object attached.
func TestBlockedEventStream(t *testing.T) {
	var kinds []event.Kind
	obs := observerFunc(func(ev Ev) {
		switch ev.Kind {
		case event.KindChanSend, event.KindChanRecv, event.KindChanClose,
			event.KindWGAdd, event.KindWGWait:
			if ev.Obj == nil {
				t.Errorf("%v event without object", ev.Kind)
			}
			kinds = append(kinds, ev.Kind)
		}
	})
	res := New(Options{Seed: 0, Observers: []Observer{obs}}).Run(func(c *Ctx) {
		ch := c.NewChan(1, "t.clf:1")
		wg := c.NewWaitGroup("t.clf:2")
		c.WGAdd(wg, 1, "t.clf:3")
		c.Send(ch, 1, "t.clf:4")
		c.Recv(ch, "t.clf:5")
		c.Close(ch, "t.clf:6")
		c.WGDone(wg, "t.clf:7")
		c.WGWait(wg, "t.clf:8")
	})
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	want := []event.Kind{event.KindWGAdd, event.KindChanSend, event.KindChanRecv,
		event.KindChanClose, event.KindWGAdd, event.KindWGWait}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds %v, want %v", kinds, want)
		}
	}
}

type observerFunc func(Ev)

func (f observerFunc) OnEvent(ev Ev) { f(ev) }

// wait builds one candidate of the partial-deadlock fixpoint.
func wait(thread int, kind BlockKind, on event.TID) waiter {
	return waiter{t: &Thread{id: event.TID(thread)}, kind: kind, on: on}
}

func TestForever(t *testing.T) {
	for _, tc := range []struct {
		name    string
		blocked []waiter
		runners int
		want    []event.TID
	}{
		{name: "empty", blocked: nil, runners: 3, want: nil},
		{
			// A stalled state: every blocked thread is stuck, whatever
			// it waits on.
			name: "stall-all-stuck",
			blocked: []waiter{
				wait(0, BlockChanRecv, event.NoThread),
				wait(1, BlockWGWait, event.NoThread),
				wait(2, BlockAwait, event.NoThread),
			},
			runners: 0,
			want:    []event.TID{0, 1, 2},
		},
		{
			// With a runner, multi-satisfier waits might still be served.
			name: "runner-releases-multi",
			blocked: []waiter{
				wait(0, BlockChanSend, event.NoThread),
				wait(1, BlockNotifyWait, event.NoThread),
			},
			runners: 1,
			want:    nil,
		},
		{
			// A join cycle survives any number of runners.
			name: "join-cycle",
			blocked: []waiter{
				wait(1, BlockJoin, 2),
				wait(2, BlockJoin, 1),
			},
			runners: 5,
			want:    []event.TID{1, 2},
		},
		{
			// A chain hanging off a cycle is dragged down with it.
			name: "chain-into-cycle",
			blocked: []waiter{
				wait(1, BlockJoin, 2),
				wait(2, BlockJoin, 1),
				wait(3, BlockAcquire, 1),
			},
			runners: 1,
			want:    []event.TID{1, 2, 3},
		},
		{
			// A lock wait on a thread that is itself waiting on a channel
			// is NOT stuck while a runner could serve the channel: the
			// holder discharges first, then the waiter.
			name: "holder-discharged-cascades",
			blocked: []waiter{
				wait(1, BlockChanRecv, event.NoThread),
				wait(2, BlockAcquire, 1),
			},
			runners: 1,
			want:    nil,
		},
		{
			// An acquire on a lock whose holder is running (not in the
			// blocked set) is never stuck.
			name: "holder-running",
			blocked: []waiter{
				wait(1, BlockAcquire, 9),
			},
			runners: 1,
			want:    nil,
		},
		{
			// A join on an already-stuck chain plus an unrelated channel
			// wait: only the sole-unblocker part is flagged.
			name: "mixed",
			blocked: []waiter{
				wait(1, BlockJoin, 2),
				wait(2, BlockJoin, 1),
				wait(3, BlockChanSend, event.NoThread),
			},
			runners: 1,
			want:    []event.TID{1, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := slices.Clone(tc.blocked)
			var got []event.TID
			for _, w := range forever(in, tc.runners) {
				got = append(got, w.t.id)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("forever(%v, %d) = %v, want %v", tc.blocked, tc.runners, got, tc.want)
			}
		})
	}
}

func TestBlockKindStrings(t *testing.T) {
	kinds := []BlockKind{BlockAcquire, BlockJoin, BlockAwait, BlockNotifyWait,
		BlockChanSend, BlockChanRecv, BlockWGWait}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d: bad or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if !BlockAcquire.SoleUnblocker() || !BlockJoin.SoleUnblocker() {
		t.Error("acquire/join must be sole-unblocker kinds")
	}
	for _, k := range []BlockKind{BlockAwait, BlockNotifyWait, BlockChanSend, BlockChanRecv, BlockWGWait} {
		if k.SoleUnblocker() {
			t.Errorf("%v must be multi-satisfier", k)
		}
	}
}

// sprintfKey is BlockedInfo.Key as it was first written, with Sprintf,
// sort.Strings and strings.Join: the reference for its bytes.
func sprintfKey(b *BlockedInfo) string {
	parts := make([]string, len(b.Threads))
	for i, t := range b.Threads {
		objKey := "?"
		if t.Obj != nil {
			objKey = fmt.Sprintf("%s@%s", t.Obj.Type, t.Obj.Site)
		}
		parts[i] = fmt.Sprintf("%s %s(%s)@%s", t.Name, t.Kind, objKey, t.Loc)
	}
	sort.Strings(parts)
	prefix := "total:"
	if b.Partial {
		prefix = "partial:"
	}
	return prefix + strings.Join(parts, "+")
}

// TestBlockedKeyBytes holds Key and a reused BlockedKeyBuilder to the
// Sprintf rendering, over verdicts with nil objects, out-of-range
// kinds, names that sort on their first byte or only past a shared
// prefix, and an empty verdict; a warm builder allocates nothing on a
// verdict of real kinds.
func TestBlockedKeyBytes(t *testing.T) {
	ch := &object.Obj{ID: 4, Type: "Chan", Site: "x.clf:3"}
	wg := &object.Obj{ID: 9, Type: "WaitGroup", Site: "héllo:\"7\""}
	infos := []*BlockedInfo{
		{},
		{Partial: true},
		{Threads: []BlockedThread{{Name: "b", Kind: BlockChanRecv, Obj: ch, Loc: "x.clf:9"}}},
		{Partial: true, Threads: []BlockedThread{
			{Name: "worker-2", Kind: BlockWGWait, Obj: wg, Loc: "w:1"},
			{Name: "worker", Kind: BlockChanSend, Obj: ch, Loc: "w:2"},
			{Name: "worker", Kind: BlockChanSend, Obj: ch, Loc: "w:10"},
			{Name: "", Kind: BlockJoin, Loc: "w:3"},
			{Name: "a+b", Kind: BlockKind(42), Obj: &object.Obj{}, Loc: ""},
		}},
	}
	var kb BlockedKeyBuilder
	for i, b := range infos {
		want := sprintfKey(b)
		if got := b.Key(); got != want {
			t.Errorf("info %d: Key() = %q, want %q", i, got, want)
		}
		if got := string(kb.Key(b)); got != want {
			t.Errorf("info %d: builder Key = %q, want %q", i, got, want)
		}
	}
	inRange := &BlockedInfo{Threads: infos[3].Threads[:4]} // BlockKind(42) renders with Sprintf
	if n := testing.AllocsPerRun(20, func() { kb.Key(inRange) }); n != 0 {
		t.Errorf("a warm builder allocates %.0f times per key, want 0", n)
	}
}
