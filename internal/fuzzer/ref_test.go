package fuzzer

import (
	"dlfuzz/internal/event"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// refPolicy is the literal Algorithm 3 loop the incremental Policy must
// reproduce: every decision rescans every alive thread, abstracts the
// thread and its lock to strings, and compares them against every cycle
// component; yield skips and budgets live in maps, and the livelock
// monitor walks every pause slot. It is the differential reference of
// TestPolicyMatchesFullScan and FuzzActivePolicy.
type refPolicy struct {
	cycle *igoodlock.Cycle
	cfg   Config
	hooks Hooks

	paused   map[event.TID]int // 1 + the step of the pause
	freePass map[event.TID]bool
	yielded  map[yieldKey]int
	skipped  map[event.TID]bool
	stats    Stats
}

func newRefPolicy(cycle *igoodlock.Cycle, cfg Config, hooks Hooks) *refPolicy {
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.PauseTimeout == 0 {
		cfg.PauseTimeout = defaultPauseTimeout
	}
	if cfg.YieldBudget == 0 {
		cfg.YieldBudget = defaultYieldBudget
	}
	return &refPolicy{
		cycle: cycle, cfg: cfg, hooks: hooks,
		paused:   make(map[event.TID]int),
		freePass: make(map[event.TID]bool),
		yielded:  make(map[yieldKey]int),
		skipped:  make(map[event.TID]bool),
	}
}

func (p *refPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	p.evictStale(s)
	for _, tid := range s.AliveTIDs() {
		if p.paused[tid] != 0 || p.freePass[tid] {
			continue
		}
		if req := s.Pending(tid); req.Kind == event.KindAcquire && p.matches(s, tid, &req) {
			p.paused[tid] = s.Steps() + 1
			p.stats.Pauses++
			if p.hooks != nil {
				p.hooks.OnPause(tid, s.Steps(), req.Loc)
			}
		}
	}
	clear(p.skipped)
	for {
		var candidates []event.TID
		for _, t := range enabled {
			if p.paused[t] == 0 {
				candidates = append(candidates, t)
			}
		}
		if len(candidates) == 0 {
			p.thrash(s)
			continue
		}
		var runnable []event.TID
		for _, t := range candidates {
			if !p.skipped[t] {
				runnable = append(runnable, t)
			}
		}
		if len(runnable) == 0 {
			runnable = candidates
		}
		tid := runnable[s.Rand().Intn(len(runnable))]
		req := s.Pending(tid)
		if req.Kind == event.KindAcquire && p.freePass[tid] {
			delete(p.freePass, tid)
			return tid
		}
		if p.cfg.YieldOpt && len(runnable) > 1 && req.Kind == event.KindAcquire && p.shouldYield(s, tid, &req) {
			p.yielded[yieldKey{tid, req.Loc}]++
			p.skipped[tid] = true
			p.stats.Yields++
			if p.hooks != nil {
				p.hooks.OnYield(tid, s.Steps(), req.Loc)
			}
			continue
		}
		return tid
	}
}

// pausedTIDs lists the paused threads in ascending order.
func (p *refPolicy) pausedTIDs(s *sched.Scheduler) []event.TID {
	var out []event.TID
	for t := 0; t < s.NumThreads(); t++ {
		if p.paused[event.TID(t)] != 0 {
			out = append(out, event.TID(t))
		}
	}
	return out
}

func (p *refPolicy) thrash(s *sched.Scheduler) {
	victims := p.pausedTIDs(s)
	victim := victims[s.Rand().Intn(len(victims))]
	delete(p.paused, victim)
	p.freePass[victim] = true
	p.stats.Thrashes++
	if p.hooks != nil {
		p.hooks.OnThrash(victim, s.Steps())
	}
}

func (p *refPolicy) evictStale(s *sched.Scheduler) {
	for _, t := range p.pausedTIDs(s) {
		if s.Steps()-(p.paused[t]-1) > p.cfg.PauseTimeout {
			delete(p.paused, t)
			p.freePass[t] = true
			p.stats.Evictions++
			if p.hooks != nil {
				p.hooks.OnEvict(t, s.Steps())
			}
		}
	}
}

func (p *refPolicy) abs(o *object.Obj) object.Key {
	return p.cfg.Abstraction.Of(o, p.cfg.K)
}

func (p *refPolicy) matches(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	absT := p.abs(s.Thread(tid).Obj())
	absL := p.abs(req.Obj)
	for _, comp := range p.cycle.Components {
		if comp.ThreadAbs != absT || comp.LockAbs != absL {
			continue
		}
		if !p.cfg.UseContext {
			return true
		}
		ctx := s.Context(tid)
		if len(ctx)+1 != len(comp.Context) {
			continue
		}
		if comp.Context[len(ctx)] != req.Loc {
			continue
		}
		if event.Context(comp.Context[:len(ctx)]).Equal(ctx) {
			return true
		}
	}
	return false
}

func (p *refPolicy) shouldYield(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	if p.yielded[yieldKey{tid, req.Loc}] >= p.cfg.YieldBudget {
		return false
	}
	if len(s.LockSet(tid)) != 0 {
		return false
	}
	absT := p.abs(s.Thread(tid).Obj())
	for _, comp := range p.cycle.Components {
		if comp.ThreadAbs != absT || len(comp.Context) == 0 {
			continue
		}
		if comp.Context[0] == req.Loc {
			return true
		}
	}
	return false
}
