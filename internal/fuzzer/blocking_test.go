package fuzzer

import (
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/workloads"
)

// sendObs records the sequence number of the first channel send.
type sendObs struct{ seq uint64 }

func (o *sendObs) OnEvent(ev sched.Ev) {
	if ev.Kind == event.KindChanSend && o.seq == 0 {
		o.seq = ev.Seq
	}
}

// biasProg: a completer ready to send next to a spinner with plenty of
// alternative steps, plus a waiting receiver. How early the send lands
// is pure scheduling.
func biasProg(c *sched.Ctx) {
	ch := c.NewChan(1, "bias:1")
	t1 := c.Spawn("completer", nil, "bias:2", func(c *sched.Ctx) {
		c.Send(ch, 1, "bias:3")
	})
	t2 := c.Spawn("spinner", nil, "bias:4", func(c *sched.Ctx) {
		for i := 0; i < 40; i++ {
			c.Step("bias:5")
		}
	})
	t3 := c.Spawn("waiter", nil, "bias:6", func(c *sched.Ctx) {
		c.Recv(ch, "bias:7")
	})
	c.Join(t1, "bias:8")
	c.Join(t2, "bias:9")
	c.Join(t3, "bias:10")
}

// TestBlockingPolicyDelaysCompletions: under the bias, the first send
// must land later (on average across seeds) than under uniform random
// scheduling — the policy is actually starving completing operations.
func TestBlockingPolicyDelaysCompletions(t *testing.T) {
	const n = 30
	var uniform, biased uint64
	for seed := int64(0); seed < n; seed++ {
		u := &sendObs{}
		res := sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{u}}).Run(biasProg)
		if res.Outcome != sched.Completed {
			t.Fatalf("uniform seed %d: outcome %v", seed, res.Outcome)
		}
		b := &sendObs{}
		res = sched.New(sched.Options{
			Seed: seed, Policy: BlockingPolicy{P: 0.95}, Observers: []sched.Observer{b},
		}).Run(biasProg)
		if res.Outcome != sched.Completed {
			t.Fatalf("biased seed %d: outcome %v", seed, res.Outcome)
		}
		uniform += u.seq
		biased += b.seq
	}
	if biased <= uniform {
		t.Errorf("bias did not delay sends: biased total seq %d, uniform %d", biased, uniform)
	}
}

// TestBlockingPolicyOnlyDelays: a correct blocking protocol still
// completes under maximal bias — deferral must never drop a completion.
func TestBlockingPolicyOnlyDelays(t *testing.T) {
	prog := func(c *sched.Ctx) {
		ch := c.NewChan(2, "ok:1")
		wg := c.NewWaitGroup("ok:2")
		c.WGAdd(wg, 2, "ok:3")
		producer := c.Spawn("producer", nil, "ok:4", func(c *sched.Ctx) {
			for i := 0; i < 4; i++ {
				c.Send(ch, i, "ok:5")
			}
			c.Close(ch, "ok:6")
			c.WGDone(wg, "ok:7")
		})
		consumer := c.Spawn("consumer", nil, "ok:8", func(c *sched.Ctx) {
			for c.Recv(ch, "ok:9") != nil {
			}
			c.WGDone(wg, "ok:10")
		})
		c.WGWait(wg, "ok:11")
		c.Join(producer, "ok:12")
		c.Join(consumer, "ok:13")
	}
	for seed := int64(0); seed < 20; seed++ {
		res := sched.New(sched.Options{Seed: seed, Policy: BlockingPolicy{P: 1}}).Run(prog)
		if res.Outcome != sched.Completed || res.Blocked != nil {
			t.Fatalf("seed %d: outcome %v blocked %v", seed, res.Outcome, res.Blocked)
		}
	}
}

// TestBlockingPolicyDeterministic: the policy draws all randomness from
// the scheduler's seeded stream, so runs replay exactly.
func TestBlockingPolicyDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		opts := sched.Options{Seed: seed, Policy: BlockingPolicy{P: 0.7}}
		a := sched.New(opts).Run(biasProg)
		b := sched.New(opts).Run(biasProg)
		if a.Outcome != b.Outcome || a.Steps != b.Steps {
			t.Fatalf("seed %d: %v/%d vs %v/%d", seed, a.Outcome, a.Steps, b.Outcome, b.Steps)
		}
	}
}

// nextOnly hides the Solo of the policy it wraps, so the scheduler
// decides every step with Next.
type nextOnly struct{ sched.Policy }

// TestSoloWorkAllocations guards the forced-run path's allocation rate,
// like the root package's TestBatchedWorkAllocations guards the batch
// path: spin-not-flagged's spinner works alone in Work(8) batches, so
// under the blocking campaign's policy nearly every decision is forced
// and taken through Solo. On a warm shell a run must allocate exactly
// as much at 50,000 steps as at 5,000 — nothing per decision — and no
// more than the same policy deciding every step with Next.
func TestSoloWorkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector, so warm-shell allocation counts do not repeat")
	}
	w, ok := workloads.ByName("spin-not-flagged")
	if !ok {
		t.Fatal("spin-not-flagged workload missing")
	}
	var solo, perStep sched.Policy = BlockingPolicy{P: 0.7}, nextOnly{BlockingPolicy{P: 0.7}}
	allocs := func(pol sched.Policy, maxSteps int) float64 {
		run := func() { sched.New(sched.Options{Seed: 1, MaxSteps: maxSteps, Policy: pol}).Run(w.Prog) }
		run()
		return testing.AllocsPerRun(20, run)
	}
	short, long := allocs(solo, 5_000), allocs(solo, 50_000)
	if long != short {
		t.Errorf("forced runs allocate per decision: %.0f allocs at 50,000 steps, %.0f at 5,000", long, short)
	}
	if per := allocs(perStep, 50_000); long > per {
		t.Errorf("Solo run allocates %.0f, per-step run %.0f", long, per)
	}
}
