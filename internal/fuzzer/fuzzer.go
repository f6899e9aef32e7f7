// Package fuzzer implements DeadlockFuzzer's Phase II (paper Section
// 2.3): the active random deadlock-checking scheduler.
//
// The Policy runs the program under a random scheduler but pauses a
// thread just before a lock acquire whose (abs(thread), abs(lock),
// context) triple appears in the target potential-deadlock cycle reported
// by iGoodlock. Paused threads keep their locks, so the remaining cycle
// threads can walk into the deadlock, which the scheduler then confirms
// via its wait-for check (checkRealDeadlock). Because a confirmed
// deadlock is an actual execution state, Phase II never reports a false
// positive.
//
// The package also implements the two mitigations the paper evaluates:
// the Section 4 yield optimization (a one-time yield before the first
// lock acquire of a cycle component, avoiding the pause-while-holding-
// the-first-lock thrashing pattern) and the livelock monitor (eviction of
// threads paused for too long).
//
// Each decision costs what changed since the last one, not what is
// alive: the pause check looks only at the thread the previous decision
// granted and at threads spawned since (see Policy.Next), and matching
// compares small integer classes of the cycle's abstraction keys, each
// object's class computed once per run. The decisions, RNG draws, hook
// calls and reports are exactly those of the literal full-rescan loop.
package fuzzer

import (
	"slices"

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

	// paused and freePass are indexed by TID (ids are minted densely
	// from 0, so slice loads replace map hashes). paused stores 1 + the
	// step at which the thread was paused, 0 meaning not paused; npaused
	// counts the nonzero entries, and while it is nonzero oldest is at
	// most the smallest of them (see evictStale).
	paused   []int
	npaused  int
	oldest   int
	freePass []bool

	// last is the thread the previous decision returned (NoThread before
	// the first) and seen the number of TIDs the pause check has covered:
	// together they are all Next has to look at (see Next).
	last event.TID
	seen int

	// The target cycle's distinct abstraction keys are numbered from 1
	// into classes (for the cycle classesOf), so matching compares int32
	// classes instead of strings: comps holds each component's (thread,
	// lock) class pair and nilClass is the class of a nil object's empty
	// key. objClass caches this run's object classes by Obj.ID, 0 meaning
	// not yet computed; absBuf is the reused render buffer.
	classes   map[string]int32
	classesOf *igoodlock.Cycle
	comps     []compClass
	nilClass  int32
	objClass  []int32
	absBuf    []byte

	yielded map[yieldKey]int // yields taken per (thread, site)
	skipped []event.TID      // threads that yielded this decision
	stats   Stats

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

// compClass is a cycle component's (abs(thread), abs(lock)) pair as
// classes.
type compClass struct{ thread, lock int32 }

// noClass is the class of an object whose abstraction no component of
// the target cycle names.
const noClass int32 = -1

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
	p.oldest = 0
	clear(p.freePass)
	p.last = event.NoThread
	p.seen = 0
	if p.classes == nil || cycle != p.classesOf {
		p.indexCycle(cycle)
	}
	// Object ids are only meaningful within a run.
	p.objClass = p.objClass[:0]
	if p.yielded == nil {
		p.yielded = make(map[yieldKey]int)
	} else {
		clear(p.yielded)
	}
	p.skipped = p.skipped[:0]
	p.stats = Stats{}
	p.hooks = nil
}

// indexCycle numbers cycle's distinct ThreadAbs/LockAbs keys and
// records each component's class pair.
func (p *Policy) indexCycle(cycle *igoodlock.Cycle) {
	if p.classes == nil {
		p.classes = make(map[string]int32)
	} else {
		clear(p.classes)
	}
	p.classesOf = cycle
	p.comps = p.comps[:0]
	class := func(k object.Key) int32 {
		c, ok := p.classes[string(k)]
		if !ok {
			c = int32(len(p.classes)) + 1
			p.classes[string(k)] = c
		}
		return c
	}
	if cycle != nil {
		for _, comp := range cycle.Components {
			p.comps = append(p.comps, compClass{class(comp.ThreadAbs), class(comp.LockAbs)})
		}
	}
	p.nilClass = noClass
	if c, ok := p.classes[""]; ok {
		p.nilClass = c
	}
}

// classOf returns o's class under the run's abstraction, computing it
// once per object: the abstraction is rendered into absBuf and looked
// up without copying.
func (p *Policy) classOf(o *object.Obj) int32 {
	if o == nil {
		return p.nilClass
	}
	if o.ID < uint64(len(p.objClass)) {
		if c := p.objClass[o.ID]; c != 0 {
			return c
		}
	} else {
		p.objClass = append(p.objClass, make([]int32, int(o.ID)+1-len(p.objClass))...)
	}
	p.absBuf = p.cfg.Abstraction.AppendOf(p.absBuf[:0], o, p.cfg.K)
	c, ok := p.classes[string(p.absBuf)]
	if !ok {
		c = noClass
	}
	p.objClass[o.ID] = c
	return c
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
//
// The pause check is incremental. A thread's verdict depends only on
// its pending request and acquire context, and only a grant changes
// those; a thread the check skips for being paused or holding a free
// pass can only lose that status by being granted too. So the only
// threads that can newly match are the one the previous decision
// returned and the ones spawned since: Next checks last, then TIDs
// seen through NumThreads()-1 — ascending order, the order a rescan of
// every alive thread would pause them in.
func (p *Policy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	p.evictStale(s)
	if p.last != event.NoThread {
		p.checkPause(s, p.last)
	}
	if n := s.NumThreads(); p.seen < n {
		p.grow(n)
		for ; p.seen < n; p.seen++ {
			p.checkPause(s, event.TID(p.seen))
		}
	}
	// Yield skips last one decision.
	p.skipped = p.skipped[:0]
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
				if !slices.Contains(p.skipped, t) {
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
			p.last = tid
			return tid
		}
		if p.cfg.YieldOpt && len(runnable) > 1 && req.Kind == event.KindAcquire && p.shouldYield(s, tid, req) {
			p.yielded[yieldKey{tid, req.Loc}]++
			p.skipped = append(p.skipped, tid)
			p.stats.Yields++
			if p.hooks != nil {
				p.hooks.OnYield(tid, s.Steps(), req.Loc)
			}
			continue
		}
		p.last = tid
		return tid
	}
}

// Solo takes up to n forced decisions for t, stopping before the one at
// which the livelock monitor's next eviction is due. Each is one draw
// and no hook. The scheduler offers them only after a state-neutral
// grant to t, so the last decision Next took returned t (p.last == t)
// and every one since was t's, no thread has been spawned since, t's
// Step neither pauses nor yields, and t, granted, is not paused — so
// each Next would find nothing to check, pick t from {t} and return.
// The eviction pass runs at the decision whose step count exceeds
// PauseTimeout + oldest − 1, so the run ends one short of it.
func (p *Policy) Solo(s *sched.Scheduler, t event.TID, n int) int {
	if p.npaused > 0 {
		n = min(n, p.cfg.PauseTimeout+p.oldest-1-s.Steps())
		if n <= 0 {
			return 0
		}
	}
	s.SkipDraws(n)
	return n
}

// checkPause pauses tid if it stands at an acquire named by the cycle.
func (p *Policy) checkPause(s *sched.Scheduler, tid event.TID) {
	if p.paused[tid] != 0 || p.freePass[tid] {
		return
	}
	req := s.PendingRef(tid)
	if req.Kind != event.KindAcquire || !p.matches(s, tid, req) {
		return
	}
	since := s.Steps() + 1
	if p.npaused == 0 {
		p.oldest = since
	}
	p.paused[tid] = since
	p.npaused++
	p.stats.Pauses++
	if p.hooks != nil {
		p.hooks.OnPause(tid, s.Steps(), req.Loc)
	}
}

// grow extends the TID-indexed sets to cover n threads.
func (p *Policy) grow(n int) {
	for len(p.paused) < n {
		p.paused = append(p.paused, 0)
		p.freePass = append(p.freePass, false)
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
// paused for longer than PauseTimeout steps. Nothing is due until the
// oldest pause is, so the pass over the pause slots runs only then, and
// recomputes oldest from the pauses it keeps.
func (p *Policy) evictStale(s *sched.Scheduler) {
	if p.npaused == 0 || s.Steps()-(p.oldest-1) <= p.cfg.PauseTimeout {
		return
	}
	p.oldest = 0
	for t, since := range p.paused {
		if since == 0 {
			continue
		}
		if s.Steps()-(since-1) > p.cfg.PauseTimeout {
			p.paused[t] = 0
			p.npaused--
			p.freePass[t] = true
			p.stats.Evictions++
			if p.hooks != nil {
				p.hooks.OnEvict(event.TID(t), s.Steps())
			}
		} else if p.oldest == 0 || since < p.oldest {
			p.oldest = since
		}
	}
}

// matches reports whether thread tid's pending acquire corresponds to a
// component of the target cycle: abs(t) and abs(l) match and — when
// context sensitivity is on — the acquire-site stack including the
// pending site equals the component's context.
func (p *Policy) matches(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	tc := p.classOf(s.Thread(tid).Obj())
	if tc == noClass {
		return false
	}
	lc := p.classOf(req.Obj)
	for i, cc := range p.comps {
		if cc.thread != tc || cc.lock != lc {
			continue
		}
		if !p.cfg.UseContext {
			return true
		}
		comp := &p.cycle.Components[i]
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
// they still need before the cycle starts forming. Each (thread, site)
// yields at most YieldBudget times.
func (p *Policy) shouldYield(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	// Only yield at the start of a component: no locks held yet.
	if len(s.LockSet(tid)) != 0 {
		return false
	}
	tc := p.classOf(s.Thread(tid).Obj())
	if tc == noClass {
		return false
	}
	for i, cc := range p.comps {
		if cc.thread != tc {
			continue
		}
		if ctx := p.cycle.Components[i].Context; len(ctx) != 0 && ctx[0] == req.Loc {
			return p.yielded[yieldKey{tid, req.Loc}] < p.cfg.YieldBudget
		}
	}
	return false
}
