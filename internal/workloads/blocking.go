package workloads

import (
	"fmt"

	"dlfuzz/internal/sched"
)

// The blocking-operation microbenchmark suite: small programs whose
// deadlocks come from channels, WaitGroups, and lock/channel mixes
// rather than lock-order cycles. They are the fixture set for the
// partial-deadlock classifier (internal/sched's classifyBlocked) and the
// blocking campaign (internal/campaign.Blocking), in the style of the
// Go blocking-bug microbenchmark suites: each program plants one known
// bug — or, for the controls, provably none — and records the verdict
// the classifier must reach on every stuck run.
//
// Verdict vocabulary: a *total* deadlock leaves every live thread
// stuck; a *partial* deadlock leaves a strict subset stuck while the
// remaining threads run to completion (the process still makes
// progress, which is why such bugs survive in production). The
// ExpectPartial/ExpectTotal fields on Workload pin which of the two a
// stuck run of each program must classify as.

// Blocking returns the blocking-operation suite: eight programs with a
// planted channel/WaitGroup deadlock followed by three deadlock-free
// controls. Kept separate from All() so the Table 1 experiments (whose
// call sites assume mutex-cycle semantics) are untouched.
func Blocking() []Workload {
	return []Workload{
		ChanCycleUnbuf(),
		ChanCycleBuf(),
		ChanOrphanRecv(),
		ChanOrphanSend(),
		ChanMissingClose(),
		WGMiscountAdd(),
		WGForgottenDone(),
		LockChanMix(),
		ChanPipelineOK(),
		WGOK(),
		SpinNotFlagged(),
	}
}

// ChanCycleUnbuf plants the classic send/send cycle on unbuffered
// channels: each worker sends before it receives, so neither rendezvous
// can start. Every schedule deadlocks totally (both workers stuck
// sending, main stuck joining).
func ChanCycleUnbuf() Workload {
	return Workload{
		Name:        "chan-cycle-unbuf",
		Desc:        "two workers send-then-recv across a channel pair; unbuffered sends cycle",
		PaperCycles: "-",
		PaperProb:   "-",
		ExpectTotal: true,
		Prog: func(c *sched.Ctx) {
			ping := c.NewChan(0, "cycle.main:10")
			pong := c.NewChan(0, "cycle.main:11")
			a := c.Spawn("fwd", nil, "cycle.main:13", func(c *sched.Ctx) {
				c.Send(ping, 1, "cycle.fwd:20")
				c.Recv(pong, "cycle.fwd:21")
			})
			b := c.Spawn("rev", nil, "cycle.main:14", func(c *sched.Ctx) {
				c.Send(pong, 2, "cycle.rev:30")
				c.Recv(ping, "cycle.rev:31")
			})
			c.Join(a, "cycle.main:16")
			c.Join(b, "cycle.main:17")
		},
	}
}

// ChanCycleBuf is the buffered variant: both workers receive first from
// a channel only the other would later fill, so buffering does not
// help — both block on empty buffers. Total on every schedule.
func ChanCycleBuf() Workload {
	return Workload{
		Name:        "chan-cycle-buf",
		Desc:        "recv-before-send cycle over capacity-1 channels; buffers stay empty",
		PaperCycles: "-",
		PaperProb:   "-",
		ExpectTotal: true,
		Prog: func(c *sched.Ctx) {
			left := c.NewChan(1, "bufcycle.main:10")
			right := c.NewChan(1, "bufcycle.main:11")
			a := c.Spawn("left", nil, "bufcycle.main:13", func(c *sched.Ctx) {
				v := c.Recv(right, "bufcycle.left:20")
				c.Send(left, v, "bufcycle.left:21")
			})
			b := c.Spawn("right", nil, "bufcycle.main:14", func(c *sched.Ctx) {
				v := c.Recv(left, "bufcycle.right:30")
				c.Send(right, v, "bufcycle.right:31")
			})
			c.Join(a, "bufcycle.main:16")
			c.Join(b, "bufcycle.main:17")
		},
	}
}

// ChanOrphanRecv leaks a receiver: a worker blocks receiving on a
// channel no thread ever sends on, and main exits without joining it.
// The worker is stuck while the program otherwise completes — the
// canonical partial deadlock (a goroutine leak).
func ChanOrphanRecv() Workload {
	return Workload{
		Name:          "chan-orphan-recv",
		Desc:          "receiver on a never-sent channel, never joined; leaks one thread",
		PaperCycles:   "-",
		PaperProb:     "-",
		ExpectPartial: true,
		Prog: func(c *sched.Ctx) {
			results := c.NewChan(0, "orphan.main:10")
			c.Spawn("collector", nil, "orphan.main:12", func(c *sched.Ctx) {
				c.Recv(results, "orphan.collector:20")
			})
			c.Work(3, "orphan.main:14")
		},
	}
}

// ChanOrphanSend is the sender-side leak: the worker blocks sending on
// an unbuffered channel whose receiver returned early. Partial on every
// schedule.
func ChanOrphanSend() Workload {
	return Workload{
		Name:          "chan-orphan-send",
		Desc:          "sender on an unbuffered channel nobody receives; leaks one thread",
		PaperCycles:   "-",
		PaperProb:     "-",
		ExpectPartial: true,
		Prog: func(c *sched.Ctx) {
			done := c.NewChan(0, "osend.main:10")
			c.Spawn("reporter", nil, "osend.main:12", func(c *sched.Ctx) {
				c.Work(2, "osend.reporter:19")
				c.Send(done, "ok", "osend.reporter:20")
			})
			c.Work(1, "osend.main:14")
		},
	}
}

// ChanMissingClose models the forgotten-close bug: the producer sends
// its values but never closes the channel, so the consumer's final
// drain receive blocks forever. The producer exits, leaving the
// consumer and the joining main stuck: partial (2 of 3 threads).
func ChanMissingClose() Workload {
	return Workload{
		Name:          "chan-missing-close",
		Desc:          "producer forgets close; consumer's drain recv blocks, main's join with it",
		PaperCycles:   "-",
		PaperProb:     "-",
		ExpectPartial: true,
		Prog: func(c *sched.Ctx) {
			const items = 3
			ch := c.NewChan(items, "noclose.main:10")
			c.Spawn("producer", nil, "noclose.main:12", func(c *sched.Ctx) {
				for i := 0; i < items; i++ {
					c.Send(ch, i, "noclose.producer:20")
				}
				// Bug: missing c.Close(ch, ...).
			})
			consumer := c.Spawn("consumer", nil, "noclose.main:13", func(c *sched.Ctx) {
				for i := 0; i < items+1; i++ {
					c.Recv(ch, "noclose.consumer:30")
				}
			})
			c.Join(consumer, "noclose.main:15")
		},
	}
}

// WGMiscountAdd adds one more to the WaitGroup counter than there are
// workers, so the final Done never comes. The workers finish; only main
// is stuck in Wait: partial.
func WGMiscountAdd() Workload {
	return Workload{
		Name:          "wg-miscount-add",
		Desc:          "Add(3) for two workers; main's Wait never returns",
		PaperCycles:   "-",
		PaperProb:     "-",
		ExpectPartial: true,
		Prog: func(c *sched.Ctx) {
			wg := c.NewWaitGroup("miscount.main:10")
			c.WGAdd(wg, 3, "miscount.main:11")
			for w := 0; w < 2; w++ {
				w := w
				c.Spawn(fmt.Sprintf("worker-%d", w), nil, "miscount.main:13", func(c *sched.Ctx) {
					c.Work(2+w, "miscount.worker:20")
					c.WGDone(wg, "miscount.worker:21")
				})
			}
			c.WGWait(wg, "miscount.main:16")
		},
	}
}

// WGForgottenDone is the other WaitGroup bug: the counter is right but
// one worker returns down a path that skips its Done. Partial on every
// schedule.
func WGForgottenDone() Workload {
	return Workload{
		Name:          "wg-forgotten-done",
		Desc:          "one of two workers returns without Done; main's Wait blocks",
		PaperCycles:   "-",
		PaperProb:     "-",
		ExpectPartial: true,
		Prog: func(c *sched.Ctx) {
			wg := c.NewWaitGroup("forgot.main:10")
			c.WGAdd(wg, 2, "forgot.main:11")
			c.Spawn("diligent", nil, "forgot.main:13", func(c *sched.Ctx) {
				c.Work(2, "forgot.diligent:20")
				c.WGDone(wg, "forgot.diligent:21")
			})
			c.Spawn("forgetful", nil, "forgot.main:14", func(c *sched.Ctx) {
				c.Work(2, "forgot.forgetful:30")
				// Bug: early return path without c.WGDone.
			})
			c.WGWait(wg, "forgot.main:16")
		},
	}
}

// LockChanMix interleaves a mutex with a channel: one worker blocks on
// a channel operation while holding the lock the other worker needs
// before it would complete the rendezvous. Whichever worker wins the
// lock, the other can never reach its channel operation — a total
// deadlock on every schedule (the stuck kinds differ by winner, so two
// verdict keys exist across seeds, but each seed is deterministic).
func LockChanMix() Workload {
	return Workload{
		Name:        "lock-chan-mix",
		Desc:        "channel rendezvous attempted with the peer stuck on the held lock",
		PaperCycles: "-",
		PaperProb:   "-",
		ExpectTotal: true,
		Prog: func(c *sched.Ctx) {
			mu := c.New("Mutex", "mix.main:10")
			ch := c.NewChan(0, "mix.main:11")
			a := c.Spawn("recv-holding", nil, "mix.main:13", func(c *sched.Ctx) {
				c.Sync(mu, "mix.recv:20", func() {
					c.Recv(ch, "mix.recv:21")
				})
			})
			b := c.Spawn("send-holding", nil, "mix.main:14", func(c *sched.Ctx) {
				c.Sync(mu, "mix.send:30", func() {
					c.Send(ch, 1, "mix.send:31")
				})
			})
			c.Join(a, "mix.main:16")
			c.Join(b, "mix.main:17")
		},
	}
}

// ChanPipelineOK is the healthy producer/consumer control: buffered
// stages, a close after the last send, and a drain loop that stops on
// the closed-channel nil. Completes on every schedule.
func ChanPipelineOK() Workload {
	return Workload{
		Name:        "chan-pipeline-ok",
		Desc:        "control: produce, close, drain to nil; always completes",
		PaperCycles: "-",
		PaperProb:   "-",
		Prog: func(c *sched.Ctx) {
			const items = 4
			ch := c.NewChan(2, "pipeok.main:10")
			producer := c.Spawn("producer", nil, "pipeok.main:12", func(c *sched.Ctx) {
				for i := 0; i < items; i++ {
					c.Send(ch, i, "pipeok.producer:20")
				}
				c.Close(ch, "pipeok.producer:22")
			})
			consumer := c.Spawn("consumer", nil, "pipeok.main:13", func(c *sched.Ctx) {
				for {
					if c.Recv(ch, "pipeok.consumer:30") == nil {
						return
					}
					c.Work(1, "pipeok.consumer:32")
				}
			})
			c.Join(producer, "pipeok.main:15")
			c.Join(consumer, "pipeok.main:16")
		},
	}
}

// WGOK is the healthy WaitGroup control: Add matches the worker count
// and every worker Dones exactly once. Completes on every schedule.
func WGOK() Workload {
	return Workload{
		Name:        "wg-ok",
		Desc:        "control: Add(3), three workers each Done once; always completes",
		PaperCycles: "-",
		PaperProb:   "-",
		Prog: func(c *sched.Ctx) {
			wg := c.NewWaitGroup("wgok.main:10")
			c.WGAdd(wg, 3, "wgok.main:11")
			for w := 0; w < 3; w++ {
				w := w
				c.Spawn(fmt.Sprintf("worker-%d", w), nil, "wgok.main:13", func(c *sched.Ctx) {
					c.Work(1+w, "wgok.worker:20")
					c.WGDone(wg, "wgok.worker:21")
				})
			}
			c.WGWait(wg, "wgok.main:16")
		},
	}
}

// SpinNotFlagged guards the classifier's step-limit soundness: a
// spinner never terminates, so the run always ends at the step limit
// with a receiver blocked on a silent channel and main blocked joining
// the spinner. Neither may be flagged — the spinner could still send,
// and main's join chains into a runnable thread — so the expected
// report is no deadlock at all.
func SpinNotFlagged() Workload {
	return Workload{
		Name:        "spin-not-flagged",
		Desc:        "control: live spinner starves a blocked receiver; step limit, no verdict",
		PaperCycles: "-",
		PaperProb:   "-",
		Prog: func(c *sched.Ctx) {
			quiet := c.NewChan(0, "spin.main:10")
			c.Spawn("waiter", nil, "spin.main:12", func(c *sched.Ctx) {
				c.Recv(quiet, "spin.waiter:20")
			})
			spinner := c.Spawn("spinner", nil, "spin.main:13", func(c *sched.Ctx) {
				for {
					c.Work(8, "spin.spinner:30")
				}
			})
			c.Join(spinner, "spin.main:15")
		},
	}
}
