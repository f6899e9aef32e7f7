package fuzzer

import (
	"dlfuzz/internal/event"
	"dlfuzz/internal/sched"
)

// NoisePolicy is the ConTest-style baseline the paper contrasts with
// (Section 6): instead of *controlling* the scheduler toward a specific
// cycle, it merely injects noise — at every scheduling decision, a
// thread that is about to acquire or release a lock is skipped with some
// probability, imitating the sleep()/yield() calls noise-makers insert
// at synchronization points.
//
// Noise can only nudge the schedule; it cannot hold a thread in place
// until a partner arrives, which is why the paper's approach wins. The
// benchmark suite measures exactly that gap.
type NoisePolicy struct {
	// P is the per-decision skip probability at synchronization
	// operations, in [0,1].
	P float64
	// Strength bounds how many candidates are skipped per decision
	// before giving up; 0 means len(enabled).
	Strength int
}

// Next picks a random enabled thread, re-rolling (up to Strength times)
// whenever the pick sits at a synchronization operation and the noise
// coin says to delay it.
func (p NoisePolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	limit := p.Strength
	if limit <= 0 {
		limit = len(enabled)
	}
	tid := enabled[s.Rand().Intn(len(enabled))]
	for i := 0; i < limit; i++ {
		k := s.PendingRef(tid).Kind
		if k != event.KindAcquire && k != event.KindRelease {
			return tid
		}
		if s.Rand().Float64() >= p.P {
			return tid
		}
		tid = enabled[s.Rand().Intn(len(enabled))]
	}
	return tid
}

// Solo takes all n forced decisions: a Step is no lock operation, so
// each is the pick's one draw.
func (NoisePolicy) Solo(s *sched.Scheduler, _ event.TID, n int) int {
	s.SkipDraws(n)
	return n
}
