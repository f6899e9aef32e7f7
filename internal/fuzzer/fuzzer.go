// Package fuzzer implements DeadlockFuzzer's Phase II (paper Section
// 2.3): the active random deadlock-checking scheduler.
//
// The Policy runs the program under a random scheduler but pauses a
// thread just before a lock acquire whose (abs(thread), abs(lock),
// context) triple appears in the target potential-deadlock cycle reported
// by iGoodlock. Paused threads keep their locks, so the remaining cycle
// threads can walk into the deadlock, which the scheduler then confirms
// via its wait-for-graph check (checkRealDeadlock). Because a confirmed
// deadlock is an actual execution state, Phase II never reports a false
// positive.
//
// The package also implements the two mitigations the paper evaluates:
// the Section 4 yield optimization (a one-time yield before the first
// lock acquire of a cycle component, avoiding the pause-while-holding-
// the-first-lock thrashing pattern) and the livelock monitor (eviction of
// threads paused for too long).
package fuzzer

import (
	"dlfuzz/internal/event"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// Config selects a DeadlockFuzzer variant. The paper's Figure 2 variants:
//
//	variant 1: Abstraction=KObject,   UseContext=true,  YieldOpt=true
//	variant 2: Abstraction=ExecIndex, UseContext=true,  YieldOpt=true  (default)
//	variant 3: Abstraction=Trivial,   UseContext=true,  YieldOpt=true
//	variant 4: Abstraction=ExecIndex, UseContext=false, YieldOpt=true
//	variant 5: Abstraction=ExecIndex, UseContext=true,  YieldOpt=false
type Config struct {
	// Abstraction and K must match the configuration iGoodlock used to
	// produce the target cycle, or the pause points will not be found.
	Abstraction object.Abstraction
	K           int
	// UseContext requires the thread's acquire-site stack to equal the
	// cycle component's context for a pause (false = variant 4).
	UseContext bool
	// YieldOpt enables the Section 4 optimization (false = variant 5).
	YieldOpt bool
	// YieldBudget bounds how many times one thread yields at one
	// statement, so repeated yields cannot livelock the checker.
	// 0 means the default of 50.
	YieldBudget int
	// PauseTimeout is the livelock monitor's eviction threshold in
	// scheduler steps; a thread paused longer is released. 0 means the
	// default of 5000. Timeout evictions do not count as thrashes.
	PauseTimeout int
}

const (
	defaultPauseTimeout = 5000
	defaultYieldBudget  = 50
)

// DefaultConfig returns variant 2, the paper's best performer.
func DefaultConfig() Config {
	return Config{Abstraction: object.ExecIndex, K: 10, UseContext: true, YieldOpt: true}
}

// Stats reports what the policy did during one execution.
type Stats struct {
	// Thrashes counts the times every enabled thread was paused and a
	// random one had to be released (paper Section 2.3).
	Thrashes int
	// Pauses counts pause decisions.
	Pauses int
	// Yields counts Section 4 yields taken.
	Yields int
	// Evictions counts livelock-monitor releases.
	Evictions int
}

// Hooks receives the policy's steering decisions as they happen, in
// decision order, for observability (witness traces record pause/thrash/
// yield points through them). Hooks run on the scheduler goroutine and
// must not call back into the policy or the scheduler. A nil Hooks (the
// default) costs nothing on the hot path.
type Hooks interface {
	// OnPause fires when a thread standing at a cycle acquire is paused.
	OnPause(t event.TID, step int, loc event.Loc)
	// OnThrash fires when every enabled thread was paused and victim was
	// released with a free pass.
	OnThrash(victim event.TID, step int)
	// OnYield fires when the Section 4 optimization skips t once at loc.
	OnYield(t event.TID, step int, loc event.Loc)
	// OnEvict fires when the livelock monitor releases a stale pause.
	OnEvict(t event.TID, step int)
}

// Policy is the active random scheduler. It implements sched.Policy.
// A Policy serves one execution at a time; Reset re-arms it for the
// next, keeping its map and buffer capacity.
type Policy struct {
	cycle *igoodlock.Cycle
	cfg   Config
	hooks Hooks

	// paused, freePass and memo are indexed by TID (ids are minted
	// densely from 0, and the sets are consulted for every alive thread
	// on every decision — slice loads instead of map hashes). paused
	// stores 1 + the step at which the thread was paused, 0 meaning not
	// paused; npaused counts the nonzero entries.
	paused   []int
	npaused  int
	freePass []bool
	// memo caches the last matches() verdict per thread. The verdict is
	// a pure function of the thread object, the pending acquire's lock
	// and site, and the thread's acquire-context — all of which can only
	// change when the thread is granted — so Next invalidates a thread's
	// entry whenever it returns that thread, and a blocked thread
	// re-scanned across many decisions is matched once.
	memo []matchMemo

	yielded map[yieldKey]int   // yields taken per (thread, site)
	skipped map[event.TID]bool // one-decision yield skips, cleared per Next
	stats   Stats
	// abs memoizes abstraction keys (see absCache): the decision loop
	// abstracts the same few threads and locks thousands of times per run.
	abs absCache

	// unpausedBuf, runnableBuf and victimBuf are per-decision scratch
	// slices, reused so the steady-state decision loop allocates nothing.
	unpausedBuf []event.TID
	runnableBuf []event.TID
	victimBuf   []event.TID
}

type yieldKey struct {
	tid event.TID
	loc event.Loc
}

type matchMemo struct {
	obj     *object.Obj
	loc     event.Loc
	valid   bool
	verdict bool
}

// New returns a policy that steers the execution toward cycle.
func New(cycle *igoodlock.Cycle, cfg Config) *Policy {
	p := &Policy{}
	p.Reset(cycle, cfg)
	return p
}

// Reset re-arms the policy for a fresh execution targeting cycle: all
// per-run state (pauses, free passes, yield budgets, stats) is cleared,
// map buckets and scratch capacity are kept. A reset policy behaves
// exactly like New(cycle, cfg).
func (p *Policy) Reset(cycle *igoodlock.Cycle, cfg Config) {
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.PauseTimeout == 0 {
		cfg.PauseTimeout = defaultPauseTimeout
	}
	if cfg.YieldBudget == 0 {
		cfg.YieldBudget = defaultYieldBudget
	}
	p.cycle = cycle
	p.cfg = cfg
	clear(p.paused)
	p.npaused = 0
	clear(p.freePass)
	clear(p.memo)
	if p.yielded == nil {
		p.yielded = make(map[yieldKey]int)
	} else {
		clear(p.yielded)
	}
	clear(p.skipped)
	p.abs.reset()
	p.stats = Stats{}
	p.hooks = nil
}

// SetHooks installs (or, with nil, removes) a decision observer for the
// next execution. Reset clears it, so pooled runners re-arm hooks after
// every Reset.
func (p *Policy) SetHooks(h Hooks) { p.hooks = h }

// Stats returns the policy's counters for the execution so far.
func (p *Policy) Stats() Stats { return p.stats }

// Next implements Algorithm 3's scheduling loop for one decision.
//
// First, every alive thread standing at a lock acquire named by the
// target cycle is paused — whether or not the lock is currently free;
// the pause point is the statement, as in the paper, so paused threads
// that happen to be blocked still belong to the Paused set and to the
// thrash-eviction pool. Then a random enabled, un-paused thread is
// picked. If everything enabled is paused, a random paused thread is
// released with a free pass (a thrash) so the system makes progress.
func (p *Policy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	p.evictStale(s)
	for _, tid := range s.AliveTIDs() {
		p.grow(tid)
		if p.paused[tid] != 0 || p.freePass[tid] {
			continue
		}
		if req := s.PendingRef(tid); req.Kind == event.KindAcquire && p.matchesMemo(s, tid, req) {
			p.paused[tid] = s.Steps() + 1
			p.npaused++
			p.stats.Pauses++
			if p.hooks != nil {
				p.hooks.OnPause(tid, s.Steps(), req.Loc)
			}
		}
	}
	// Yield skips last one decision. The len guard keeps the common case
	// (no yields last decision) from paying a map-clear runtime call per
	// scheduling step.
	if len(p.skipped) > 0 {
		clear(p.skipped)
	}
	for {
		candidates := p.unpaused(enabled)
		if len(candidates) == 0 {
			p.thrash(s)
			continue
		}
		// Drop one-decision yield skips, unless that would leave
		// nothing to run.
		runnable := candidates
		if len(p.skipped) > 0 {
			runnable = p.runnableBuf[:0]
			for _, t := range candidates {
				if !p.skipped[t] {
					runnable = append(runnable, t)
				}
			}
			p.runnableBuf = runnable
			if len(runnable) == 0 {
				runnable = candidates
			}
		}
		tid := runnable[s.Rand().Intn(len(runnable))]
		req := s.PendingRef(tid)
		if req.Kind == event.KindAcquire && p.freePass[tid] {
			p.freePass[tid] = false
			p.invalidate(tid)
			return tid
		}
		if p.cfg.YieldOpt && len(runnable) > 1 && req.Kind == event.KindAcquire && p.shouldYield(s, tid, req) {
			p.yielded[yieldKey{tid, req.Loc}]++
			if p.skipped == nil {
				p.skipped = make(map[event.TID]bool)
			}
			p.skipped[tid] = true
			p.stats.Yields++
			if p.hooks != nil {
				p.hooks.OnYield(tid, s.Steps(), req.Loc)
			}
			continue
		}
		p.invalidate(tid)
		return tid
	}
}

// grow extends the TID-indexed sets to cover tid.
func (p *Policy) grow(tid event.TID) {
	for int(tid) >= len(p.paused) {
		p.paused = append(p.paused, 0)
		p.freePass = append(p.freePass, false)
		p.memo = append(p.memo, matchMemo{})
	}
}

// matchesMemo is matches with the per-thread verdict cache.
func (p *Policy) matchesMemo(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	m := &p.memo[tid]
	if m.valid && m.obj == req.Obj && m.loc == req.Loc {
		return m.verdict
	}
	v := p.matches(s, tid, req)
	*m = matchMemo{obj: req.Obj, loc: req.Loc, valid: true, verdict: v}
	return v
}

// invalidate drops tid's memoized verdict; called whenever Next grants
// tid, since the grant may change its pending request or context.
func (p *Policy) invalidate(tid event.TID) {
	if int(tid) < len(p.memo) {
		p.memo[tid].valid = false
	}
}

// unpaused filters the paused threads out of enabled, into a reused
// scratch buffer.
func (p *Policy) unpaused(enabled []event.TID) []event.TID {
	if p.npaused == 0 {
		return enabled
	}
	out := p.unpausedBuf[:0]
	for _, t := range enabled {
		if p.paused[t] == 0 {
			out = append(out, t)
		}
	}
	p.unpausedBuf = out
	return out
}

// thrash releases one random paused thread, granting it a free pass so
// the scheduler is guaranteed to progress even if the thread's next
// acquire still matches the cycle.
//
// Exactly as in Algorithm 3, the victim is drawn from the whole Paused
// set — including threads that have since become blocked on a held lock.
// Releasing such a thread does not unblock anything immediately, which is
// precisely how a badly placed pause can make the checker miss the
// deadlock (the probability-0.25 miss analyzed in the paper's Section 3).
func (p *Policy) thrash(s *sched.Scheduler) {
	// The TID-indexed scan yields victims in ascending id order, the same
	// canonical order the map-based set had to sort into, so the
	// RNG-indexed pick is reproducible.
	victims := p.victimBuf[:0]
	for t, since := range p.paused {
		if since != 0 {
			victims = append(victims, event.TID(t))
		}
	}
	p.victimBuf = victims
	victim := victims[s.Rand().Intn(len(victims))]
	p.paused[victim] = 0
	p.npaused--
	p.freePass[victim] = true
	p.stats.Thrashes++
	if p.hooks != nil {
		p.hooks.OnThrash(victim, s.Steps())
	}
}

// evictStale is the livelock monitor: it releases threads that have been
// paused for longer than PauseTimeout steps.
func (p *Policy) evictStale(s *sched.Scheduler) {
	if p.npaused == 0 {
		return
	}
	for t, since := range p.paused {
		if since != 0 && s.Steps()-(since-1) > p.cfg.PauseTimeout {
			p.paused[t] = 0
			p.npaused--
			p.freePass[t] = true
			p.stats.Evictions++
			if p.hooks != nil {
				p.hooks.OnEvict(event.TID(t), s.Steps())
			}
		}
	}
}

// matches reports whether thread tid's pending acquire corresponds to a
// component of the target cycle: abs(t) and abs(l) match and — when
// context sensitivity is on — the acquire-site stack including the
// pending site equals the component's context.
func (p *Policy) matches(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	absT := p.abs.of(p.cfg.Abstraction, s.Thread(tid).Obj(), p.cfg.K)
	absL := p.abs.of(p.cfg.Abstraction, req.Obj, p.cfg.K)
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

// shouldYield implements the Section 4 optimization: a thread matching a
// cycle component's thread abstraction yields once before the bottommost
// acquire of that component's context, letting other threads drain locks
// they still need before the cycle starts forming.
func (p *Policy) shouldYield(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	if p.yielded[yieldKey{tid, req.Loc}] >= p.cfg.YieldBudget {
		return false
	}
	// Only yield at the start of a component: no locks held yet.
	if len(s.LockSet(tid)) != 0 {
		return false
	}
	absT := p.abs.of(p.cfg.Abstraction, s.Thread(tid).Obj(), p.cfg.K)
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
