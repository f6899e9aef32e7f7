// Package avoid implements Dimmunix-style deadlock immunity (paper
// Section 6, Jula et al. OSDI'08) on top of this repository's machinery:
// once a deadlock pattern has been observed — for us, a cycle confirmed
// by DeadlockFuzzer, which is strictly better input than Dimmunix's
// post-mortem patterns — a scheduling policy keeps future executions out
// of that pattern.
//
// The avoidance rule mirrors Dimmunix's: a thread about to perform an
// acquire that instantiates one component of a recorded pattern is
// deferred while any other thread is *inside* a different component of
// the same pattern (holding its prefix of the recorded context). At most
// one thread at a time may be inside a recorded pattern, so its cycle
// can never close. Deferral is advisory — if nothing else can run, the
// thread proceeds — which keeps the policy livelock-free at the price of
// completeness, the same trade Dimmunix makes.
package avoid

import (
	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// Policy schedules randomly but keeps executions out of the recorded
// deadlock patterns. It implements sched.Policy.
type Policy struct {
	patterns []*igoodlock.Cycle
	cfg      fuzzer.Config
	deferred int
}

// New returns an avoidance policy for the recorded patterns. cfg selects
// the abstraction under which pattern components are matched; it must be
// the configuration that produced the patterns.
func New(patterns []*igoodlock.Cycle, cfg fuzzer.Config) *Policy {
	if cfg.K == 0 {
		cfg.K = 10
	}
	return &Policy{patterns: patterns, cfg: cfg}
}

// Deferred returns how many scheduling decisions deferred a thread to
// keep it out of a pattern.
func (p *Policy) Deferred() int { return p.deferred }

// Next picks a random enabled thread, deferring threads whose next
// acquire would put a second thread inside one recorded pattern.
func (p *Policy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	candidates := enabled
	for len(candidates) > 1 {
		i := s.Rand().Intn(len(candidates))
		tid := candidates[i]
		if !p.wouldEnterContestedPattern(s, tid) {
			return tid
		}
		p.deferred++
		// Drop tid from the working set and re-pick.
		rest := make([]event.TID, 0, len(candidates)-1)
		rest = append(rest, candidates[:i]...)
		rest = append(rest, candidates[i+1:]...)
		candidates = rest
	}
	return candidates[0]
}

// Solo takes all n forced decisions: a lone candidate is returned
// without a draw and without touching the policy's state, so no Next
// call has to come first.
func (p *Policy) Solo(_ *sched.Scheduler, _ event.TID, n int) int { return n }

// wouldEnterContestedPattern reports whether tid's pending acquire
// instantiates a component of some recorded pattern while another thread
// occupies a different component of the same pattern.
func (p *Policy) wouldEnterContestedPattern(s *sched.Scheduler, tid event.TID) bool {
	req := s.Pending(tid)
	if req.Kind != event.KindAcquire {
		return false
	}
	for _, pat := range p.patterns {
		comp := p.matchingComponent(s, tid, req, pat)
		if comp < 0 {
			continue
		}
		for _, other := range s.AliveTIDs() {
			if other == tid {
				continue
			}
			if occ := p.occupiedComponent(s, other, pat); occ >= 0 && occ != comp {
				return true
			}
		}
	}
	return false
}

// matchingComponent returns the index of the pattern component that
// tid's pending acquire advances it into: the thread's context plus the
// pending site must be a prefix of the component's recorded context
// (entering at the outermost acquire counts — that is where the pattern
// must be headed off, before the thread holds anything another pattern
// thread will want). The lock abstraction is checked at the final
// position, where the component names it. Returns -1 when no component
// matches.
func (p *Policy) matchingComponent(s *sched.Scheduler, tid event.TID, req sched.Request, pat *igoodlock.Cycle) int {
	absT := p.cfg.Abstraction.Of(s.Thread(tid).Obj(), p.cfg.K)
	ctx := s.Context(tid)
	for i, comp := range pat.Components {
		if comp.ThreadAbs != absT {
			continue
		}
		n := len(ctx)
		if n+1 > len(comp.Context) || comp.Context[n] != req.Loc {
			continue
		}
		if !event.Context(comp.Context[:n]).Equal(ctx) {
			continue
		}
		if n+1 == len(comp.Context) &&
			comp.LockAbs != p.cfg.Abstraction.Of(req.Obj, p.cfg.K) {
			continue
		}
		return i
	}
	return -1
}

// occupiedComponent returns the index of the pattern component whose
// context prefix the thread currently holds (it is "inside" the
// pattern), or -1.
func (p *Policy) occupiedComponent(s *sched.Scheduler, tid event.TID, pat *igoodlock.Cycle) int {
	absT := p.cfg.Abstraction.Of(s.Thread(tid).Obj(), p.cfg.K)
	ctx := s.Context(tid)
	if len(ctx) == 0 {
		return -1
	}
	for i, comp := range pat.Components {
		if comp.ThreadAbs != absT {
			continue
		}
		if len(ctx) >= len(comp.Context) {
			continue // already past the final acquire: pattern closed or left
		}
		if event.Context(comp.Context[:len(ctx)]).Equal(ctx) {
			return i
		}
	}
	return -1
}
