package fuzzer

import (
	"dlfuzz/internal/event"
	"dlfuzz/internal/sched"
)

// BlockingPolicy biases the schedule toward blocking deadlocks: at
// every decision, a thread about to perform a *completing* operation —
// one that could discharge some other thread's wait (a channel send or
// close, a latch signal, a monitor notify, a WaitGroup decrement) — is
// skipped with probability P. Starving completions makes the waiting
// side block first and stay blocked longer, which widens the window in
// which a mismatched protocol (an orphaned receive, a forgotten Done, a
// missing close) collapses into a partial or total deadlock.
//
// This is the blocking-operation analogue of NoisePolicy: noise at
// lock operations shakes out lock-order cycles, delay at completing
// operations shakes out stuck-waiter deadlocks. Like noise it only
// nudges — a run on a correct program still completes, because a
// deferred completion is delayed, never dropped.
type BlockingPolicy struct {
	// P is the per-decision skip probability at completing operations,
	// in [0,1].
	P float64
	// Strength bounds how many candidates are skipped per decision
	// before giving up; 0 means len(enabled).
	Strength int
}

// completing reports whether the pending operation could unblock some
// other thread's wait.
func completing(r *sched.Request) bool {
	switch r.Kind {
	case event.KindChanSend, event.KindChanClose, event.KindSignal, event.KindNotify:
		return true
	case event.KindWGAdd:
		return r.Delta < 0
	}
	return false
}

// Next picks a random enabled thread, re-rolling (up to Strength times)
// whenever the pick sits at a completing operation and the bias coin
// says to delay it.
func (p BlockingPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	limit := p.Strength
	if limit <= 0 {
		limit = len(enabled)
	}
	tid := enabled[s.Rand().Intn(len(enabled))]
	for i := 0; i < limit; i++ {
		if !completing(s.PendingRef(tid)) {
			return tid
		}
		if s.Rand().Float64() >= p.P {
			return tid
		}
		tid = enabled[s.Rand().Intn(len(enabled))]
	}
	return tid
}

// Solo takes all n forced decisions: a Step is not completing, so each
// is the pick's one draw.
func (BlockingPolicy) Solo(s *sched.Scheduler, _ event.TID, n int) int {
	s.SkipDraws(n)
	return n
}
