// Package sched implements the deterministic cooperative scheduler that
// substitutes for the JVM thread scheduler the paper instruments.
//
// A simulated thread posts its next observable operation (a Request) and
// runs the scheduling loop itself, between its post and its next grant.
// The loop picks one enabled thread per step (delegating the choice to a
// pluggable Policy) and executes its request; when the chosen thread is
// the poster, the grant is a plain return with zero switches. A thread
// body comes in one of two kinds. A Go body (func(*Ctx)) runs as a
// coroutine (iter.Pull): a grant to a different thread yields to Run's
// goroutine, which resumes the chosen coroutine directly — no channel
// and no trip through the Go run queue. A Machine keeps its own state
// between scheduling points, as the CLF VM's threads do: it runs by a
// plain call on whichever stack takes the turn to it, and a grant away
// from it is a return to Run's goroutine. Exactly one stack runs at any
// instant and the decision sequence is identical to a strict lockstep
// loop, so an execution remains a pure function of (program, policy,
// seed). This is what makes the paper's probabilities measurable and
// its experiments replayable.
//
// Invisible work (Ctx.Work) is batched: a thread posts one request for n
// steps and receives its n grants without reposting, so every step is
// still a scheduling decision — the step counter advances and the policy
// draws once per step — with no per-step handshake. While the batching
// thread is the only enabled one, each of those decisions is forced, and
// a policy implementing SoloPolicy takes the whole run of them in one
// call, the batch's first decision included when the thread's previous
// grant was state-neutral. The draws of the per-step calls are owed, not
// made: SkipDraws counts them and Rand applies the count before the next
// real pick reads the stream. The schedule is that of n separate Steps;
// the batching goldens (batching_test.go in the module root) pin it.
//
// The enabled set is kept, not rescanned, across state-neutral grants
// (Step, Yield, Call, Return, New, Join, Await): such a grant changes no
// state another thread's executability reads, so only the granted
// thread's membership can change, and only when it posts again. Any
// other grant, and a post of Exit or ChanRecv, forces a full rescan.
//
// A run that ends with threads still blocked tears them down. A Machine
// is dropped without being resumed. A Go body is resumed once with an
// abort and unwinds, the deferred Returns and Releases of Ctx.Call and
// Ctx.Sync skipping their posts rather than re-raising the abort frame
// by frame.
//
// The scheduler confirms resource deadlocks the way Algorithm 4 does: the
// moment an Acquire blocks, it follows the new waiter's wait-for chain
// (waiter -> holder of the wanted lock -> ...) and, if the chain closes
// a cycle, ends the run with a DeadlockInfo carrying the full context of
// every edge. A run that stalls is checked against the whole wait-for
// graph.
//
// The execution hot path is engineered to be allocation-free at steady
// state (see DESIGN.md "Performance"): a cross-thread grant is a return
// and a call for a Machine and two direct coroutine switches for a Go
// body, event construction is skipped entirely when no observer is
// attached, event snapshots of lock and context stacks are O(1)
// persistent shares guarded by copy-on-write watermarks rather than
// per-event clones, lock state is a dense slice indexed by object ID,
// the wait chain and the enabled set are reused scratch buffers, and
// every execution runs on a warm shell: New draws a scheduler, its
// parked thread shells (coroutines included), RNG, tables and object
// arena from one package-level set, and Run recycles the shell back
// into it. An object lives as long as its run unless the run published
// it to an observer or in a panic; a Result names copies (see
// describeCycle), so it never points into the arena.
package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// Policy decides which enabled thread runs next. Implementations receive
// the scheduler for read access to thread state (pending requests, lock
// sets, contexts, abstractions) and its seeded RNG.
//
// Next must return one of the TIDs in enabled; enabled is non-empty and
// sorted ascending. The slice is a buffer the scheduler reuses between
// steps: policies may read it freely during the call but must not retain
// it. Next is called once per decision, except for the forced decisions
// a SoloPolicy takes in bulk.
type Policy interface {
	Next(s *Scheduler, enabled []event.TID) event.TID
}

// SoloPolicy is a Policy that can take a run of forced decisions in one
// call. A decision is forced when the enabled set is {t} and t's request
// is a Step (batched by Ctx.Work or single): Next could only return t,
// and a Step is no synchronization operation, so a policy has nothing to
// decide — at most it draws what its Next would.
//
// Solo takes up to n consecutive forced decisions for t and returns how
// many it took; 0 means "decide with Next". Taking k of them must draw
// what k Next calls would (SkipDraws covers the usual one draw each) and
// leave the policy's hooks, stats and state as those calls would. The
// scheduler calls Solo only when the previous decision granted t a
// state-neutral request (a Step, Yield, Call, Return, New, Join or
// Await), whether Next or Solo took it: no thread has been spawned or
// changed state since, and the last thread the policy returned is t.
// It advances its step count by the decisions taken once Solo returns,
// so Steps reports the decisions taken before the run.
type SoloPolicy interface {
	Policy
	Solo(s *Scheduler, t event.TID, n int) int
}

// Ev is one observed dynamic statement, delivered to observers after its
// effect is applied. LockSet and Context are only populated for Acquire
// and Release events (immutable snapshots; see field docs).
type Ev struct {
	Seq       uint64
	Kind      event.Kind
	Thread    event.TID
	ThreadObj *object.Obj
	Loc       event.Loc
	// Obj is the lock (Acquire/Release), the created object (New), the
	// latch (Await/Signal), or the spawned/joined thread's object
	// (Spawn/Join).
	Obj    *object.Obj
	Method string
	Target event.TID
	// LockSet is, for Acquire, the set of locks held *before* the
	// acquire (the paper's L), and for Release the set held after.
	// The slice is an immutable snapshot: observers may retain it but
	// must not modify it.
	LockSet []*object.Obj
	// Context is, for Acquire, the acquire-site stack *including* the
	// current site (the paper's C). Immutable, like LockSet.
	Context event.Context
}

// Observer receives every event of an execution, in order. Observers run
// inside the scheduling loop and may not call back into the scheduler.
type Observer interface {
	OnEvent(ev Ev)
}

// Options configures an execution.
type Options struct {
	// Seed seeds the scheduler's RNG (shared with the policy).
	Seed int64
	// MaxSteps bounds the number of scheduling decisions; 0 means the
	// default of 1,000,000.
	MaxSteps int
	// Policy chooses threads; nil means uniform random (Algorithm 2).
	Policy Policy
	// Observers receive the event stream.
	Observers []Observer
}

const defaultMaxSteps = 1_000_000

// Scheduler runs one execution of a simulated concurrent program. It is
// single-use: Run recycles it into the warm set New draws from, so it
// must not be touched once Run returns (or panics).
type Scheduler struct {
	opts Options
	rng  *rand.Rand
	src  *fastSource // rng's source, for SkipDraws
	// draws counts the source draws owed by SkipDraws; Rand applies them
	// before it hands the generator out.
	draws   int
	policy  Policy
	solo    SoloPolicy // policy as a SoloPolicy, nil when it is not one
	alloc   object.Allocator
	threads []*Thread
	// alive lists the non-terminated threads in ascending TID order (ids
	// are minted in spawn order, so appends keep it sorted). The scans —
	// enabled set, alive set, the stall-time wait-for walk — walk this
	// list instead of all of threads, so long-dead threads cost nothing.
	alive []*Thread
	// latches and locks are allocated lazily: most workloads use no
	// latches, and recycled shells keep the (cleared) containers across
	// runs. Object ids are minted densely from 1 by the per-run
	// allocator, so locks is a slice indexed by Obj.ID — a bounds check
	// and a load per lookup on the per-step hot path, instead of a map
	// hash. Slots for never-locked objects stay nil.
	latches map[uint64]*Latch
	locks   []*lockState

	steps    int
	seq      uint64
	acquires uint64
	deadlock *DeadlockInfo
	blocked  *BlockedInfo
	panicVal any
	outcome  Outcome
	// crossGrants and unwound are Result.CrossGrants and Result.Unwound.
	crossGrants int
	unwound     int

	// handoff is the thread a cross-grant chose: the granting thread
	// stops (a Go body yields its coroutine, a Machine returns) and Run's
	// goroutine resumes handoff (see schedule and drive).
	handoff *Thread

	// parked holds the thread shells of finished runs, their coroutines
	// parked between bodies, for newThread to reuse. It lives apart from
	// the Scheduler so that the cleanup stopping those coroutines (see
	// newShell) does not keep the scheduler reachable.
	parked *[]*Thread
	// freeLocks is the lockState free list, retained across runs.
	freeLocks []*lockState
	// chainBuf, enabledBuf and aliveBuf are reusable scratch state for
	// the per-step hot path.
	chainBuf   []event.TID
	enabledBuf []event.TID
	aliveBuf   []event.TID
	// enabledValid marks enabledBuf as the kept enabled set: a rescan's
	// result, carried across state-neutral grants (see neutral). Between
	// such a grant to t and t's next post only t's membership may be
	// stale; schedule settles it when t posts.
	enabledValid bool
	// neutral is the thread the previous decision granted a state-neutral
	// request, nil when that grant was of another kind.
	neutral *Thread
	// observing caches len(opts.Observers) > 0. Without observers the
	// event stream has no consumer, so applyRequest skips materializing
	// Ev values entirely (evBuf is its write-only scratch) and emit only
	// advances seq.
	observing bool
	evBuf     Ev
	// detach is describeCycle's and classifyBlocked's scratch for
	// copying a Result's objects out of alloc, and waiters
	// classifyBlocked's candidate list.
	detach  detacher
	waiters []waiter
}

// shells is the warm set: schedulers whose runs have been recycled. A
// shell the sync.Pool drops is garbage, and its cleanup stops the
// coroutines it parked.
var shells = sync.Pool{New: func() any { return newShell() }}

// New returns a scheduler configured by opts, on a warm shell when one
// is available. Recycled shells are reset to the observable state of
// brand-new ones — re-seeded RNG stream, zeroed counters, cleared
// (capacity-retaining) tables and stacks — so results and event streams
// do not depend on what a shell ran before.
func New(opts Options) *Scheduler {
	s := shells.Get().(*Scheduler)
	s.init(opts)
	return s
}

// init configures a brand-new or recycled shell for one execution.
// Recycled shells arrive with zeroed run state (see recycle); init only
// has to re-arm the options, RNG and policy.
func (s *Scheduler) init(opts Options) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	s.opts = opts
	if s.rng == nil {
		// fastSource produces the identical stream to
		// rand.NewSource(opts.Seed) with a far cheaper per-run Seed
		// (a faster fill, done lazily as draws reach the register);
		// see rng.go for the bit-compatibility argument.
		s.src = &fastSource{}
		s.src.Seed(opts.Seed)
		s.rng = rand.New(s.src)
	} else {
		// Re-seeding produces the identical stream to a fresh
		// rand.New(rand.NewSource(seed)), without the two allocations.
		s.rng.Seed(opts.Seed)
	}
	s.draws = 0
	s.policy = opts.Policy
	if s.policy == nil {
		s.policy = RandomPolicy{}
	}
	s.solo, _ = s.policy.(SoloPolicy)
	s.observing = len(opts.Observers) > 0
}

// Rand returns the execution's RNG, first applying the draws SkipDraws
// owes it. Policies draw from it so that one seed determines the whole
// schedule; they call Rand for every pick rather than keep the
// generator, so that no pick reads the stream ahead of owed draws.
func (s *Scheduler) Rand() *rand.Rand {
	if s.draws > 0 {
		s.applyDraws()
	}
	return s.rng
}

// applyDraws advances the source by the owed draws. It is kept out of
// Rand so that Rand stays small enough to inline.
func (s *Scheduler) applyDraws() {
	s.src.skip(s.draws)
	s.draws = 0
}

// SkipDraws owes the execution's RNG what n Rand().Intn(1) calls draw —
// one source draw each — without computing the values: the draws of n
// forced decisions (see SoloPolicy). The count is applied when Rand is
// next called, so a run that ends before its next pick never makes them.
func (s *Scheduler) SkipDraws(n int) { s.draws += n }

// Steps returns the number of scheduling decisions taken so far.
func (s *Scheduler) Steps() int { return s.steps }

// Thread returns the thread with the given id.
func (s *Scheduler) Thread(t event.TID) *Thread { return s.threads[t] }

// Pending returns thread t's posted request.
func (s *Scheduler) Pending(t event.TID) Request { return s.threads[t].pending }

// PendingRef returns a pointer to thread t's posted request, valid until
// the thread is next granted. Policies on the per-decision hot path use
// it to avoid copying the Request struct; callers must not modify or
// retain the referent.
func (s *Scheduler) PendingRef(t event.TID) *Request { return &s.threads[t].pending }

// LockSet returns the locks currently held by t, outermost first.
// The returned slice is the live stack; callers must not modify it.
func (s *Scheduler) LockSet(t event.TID) []*object.Obj { return s.threads[t].lockStack }

// Context returns t's acquire-site stack, outermost first. The returned
// slice is the live stack; callers must not modify it.
func (s *Scheduler) Context(t event.TID) event.Context { return s.threads[t].ctxStack }

// Holder returns the thread currently holding the monitor of o, or
// NoThread when it is free.
func (s *Scheduler) Holder(o *object.Obj) event.TID {
	if ls := s.lookupLock(o.ID); ls != nil {
		return ls.holder
	}
	return event.NoThread
}

// Allocated returns the number of objects allocated so far.
func (s *Scheduler) Allocated() uint64 { return s.alloc.Count() }

// lookupLock returns the monitor state for object id, or nil when the
// object has never been locked this run.
func (s *Scheduler) lookupLock(id uint64) *lockState {
	if id < uint64(len(s.locks)) {
		return s.locks[id]
	}
	return nil
}

// lock returns (creating on demand) the monitor state for o.
func (s *Scheduler) lock(o *object.Obj) *lockState {
	if ls := s.lookupLock(o.ID); ls != nil {
		return ls
	}
	for uint64(len(s.locks)) <= o.ID {
		s.locks = append(s.locks, nil)
	}
	var ls *lockState
	if n := len(s.freeLocks); n > 0 {
		ls = s.freeLocks[n-1]
		s.freeLocks = s.freeLocks[:n-1]
	} else {
		ls = &lockState{}
	}
	ls.obj = o
	ls.holder = event.NoThread
	s.locks[o.ID] = ls
	return ls
}

// registerLatch records a latch created by Ctx.NewLatch, allocating the
// latch table on first use.
func (s *Scheduler) registerLatch(l *Latch) {
	if s.latches == nil {
		s.latches = make(map[uint64]*Latch)
	}
	s.latches[l.obj.ID] = l
}

// newThread registers a thread and runs its body up to its first
// scheduling point: only that body runs until it posts, so determinism
// holds. A Machine body runs by a plain call. A Go body runs on the
// shell's coroutine; recycled thread shells keep theirs parked between
// bodies, so re-spawning one skips creating it and keeps its grown
// stack. A Go body that hands over to a machine (Ctx.Become) has
// returned when the coroutine yields, and the machine then runs.
func (s *Scheduler) newThread(name string, obj *object.Obj, body func(*Ctx), m Machine) *Thread {
	t := s.takeThread()
	t.id = event.TID(len(s.threads))
	t.name = name
	t.obj = obj
	t.sched = s
	t.alive = true
	t.body = body
	t.machine = m
	s.threads = append(s.threads, t)
	s.alive = append(s.alive, t) // ids are minted ascending, so alive stays sorted
	if m == nil {
		if t.next == nil {
			t.startCoro()
		}
		t.next()
	}
	if t.machine != nil {
		t.resume()
	}
	return t
}

// loop is a shell's coroutine: it runs one thread body per resume from
// its park between bodies, and returns when stopped.
func (t *Thread) loop(yield func(struct{}) bool) {
	t.yield = yield
	defer func() { t.next = nil }()
	for {
		t.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the current body, posting Exit (or recording a user
// panic) on the way out, unless the body handed the thread over to a
// machine.
func (t *Thread) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPanic); ok {
				return
			}
			// Propagate user panics to Run via the scheduler.
			t.sched.panicVal = r
			t.postExit()
		}
	}()
	t.body(&t.ctx)
	if t.machine == nil {
		t.postExit()
	}
}

// postExit posts the Exit request, which is never granted. A body that
// never reached a scheduling point leaves it to its creator to retire;
// otherwise the scheduling loop retires the thread and runs until the
// turn moves on or the run ends. Either way a Go body's coroutine then
// parks between bodies.
func (t *Thread) postExit() {
	t.pending = Request{Kind: event.KindExit}
	if t.posted {
		t.sched.schedule(t)
	}
}

// takeThread pops a parked thread shell, or returns a brand-new one.
// Parked shells were fully reset at recycle time; their coroutine and
// stack/indexer capacity carry over.
func (s *Scheduler) takeThread() *Thread {
	parked := *s.parked
	if n := len(parked); n > 0 {
		t := parked[n-1]
		parked[n-1] = nil
		*s.parked = parked[:n-1]
		return t
	}
	t := &Thread{indexer: object.NewIndexer()}
	t.ctx.t = t
	return t
}

// Run executes main as the initial thread and returns the result. It
// panics if a thread body panicked. Either way the shell is recycled into
// the warm set, so the Scheduler must not be used again.
//
// Run ends by yielding to the Go scheduler. An execution never enters
// it otherwise: Machines take the turn by plain calls and Go bodies by
// coroutine switches, which bypass it. So on one P the garbage
// collector's background mark worker would run only when the Go runtime
// preempts a long run: a mark phase then stretched over many executions
// (a median 6.5 ms of wall clock for under 1 ms of marking), with write
// barriers on and allocations paying assists. Yielding once per
// execution lets the worker keep its share, and the phase ends in about
// 2 ms.
func (s *Scheduler) Run(main func(*Ctx)) *Result {
	defer shells.Put(s)
	res := s.execute(main)
	runtime.Gosched()
	return res
}

// execute is Run without returning the shell to the warm set: the run,
// then the recycle step, which also runs when the run panics. The run
// published its objects when an observer saw them or when it panicked,
// since the panic value may hold them.
func (s *Scheduler) execute(main func(*Ctx)) (res *Result) {
	defer func() { s.recycle(res == nil || s.observing) }()
	s.outcome = Completed
	s.blocked = nil
	s.drive(main)
	if s.panicVal != nil {
		panic(s.panicVal)
	}
	return &Result{
		Outcome:     s.outcome,
		Deadlock:    s.deadlock,
		Blocked:     s.blocked,
		Steps:       s.steps,
		Events:      s.seq,
		Acquires:    s.acquires,
		Spawned:     len(s.threads),
		Allocated:   s.alloc.Count(),
		CrossGrants: s.crossGrants,
		Unwound:     s.unwound,
	}
}

// drive runs the execution on Run's goroutine: it schedules until the
// main thread's first grant, then resumes each cross-granted thread in
// turn until the run is over: a machine by a call, a Go body by a
// switch to its coroutine. Teardown is deferred so that a policy panic
// on this goroutine still ends every thread left alive.
func (s *Scheduler) drive(main func(*Ctx)) {
	defer s.teardown()
	mainObj := s.alloc.New("Thread", "main", nil, s.alloc.Index(object.IndexEntry{Loc: "main", Count: 1}))
	s.retireIfExited(s.newThread("main", mainObj, main, nil))
	s.schedule(nil)
	for t := s.handoff; t != nil; t = s.handoff {
		s.handoff = nil
		if t.machine != nil {
			t.resume()
		} else {
			t.next()
		}
	}
}

// retireIfExited retires a thread whose body returned before its first
// scheduling point. Such a thread posts Exit to its creator instead of
// scheduling, so nothing else would ever retire it; its Exit event
// follows the Spawn event that created it.
func (s *Scheduler) retireIfExited(t *Thread) {
	if t.pending.Kind == event.KindExit {
		s.retire(t)
	}
}

// retire marks t terminated and emits its Exit event.
func (s *Scheduler) retire(t *Thread) {
	t.alive = false
	s.dropAlive(t)
	s.emit(&Ev{Kind: event.KindExit, Thread: t.id, ThreadObj: t.obj})
}

// schedule is the scheduling loop. It runs on the stack of a thread
// whose user code just posted (poster): a Go body's coroutine, or Run's
// goroutine under a Machine's Resume. It also runs on Run's goroutine
// right after the main thread's first post (poster == nil). It returns
// true when it granted the poster itself, false when the poster must
// stop: either the turn went to s.handoff, or the run is over (handoff
// nil).
//
// Each iteration takes one scheduling decision and applies the chosen
// request. Granting the poster itself simply returns: user code resumes
// on this very stack with zero switches — this is what makes runs of
// consecutive grants to one thread (program prologues, solo sections)
// switch-free. Granting another thread records it in s.handoff; the
// poster yields its coroutine or returns from its Resume, Run's
// goroutine resumes the chosen thread, and that thread continues the
// loop at its next post. The decision
// sequence, RNG draws and event stream are identical to a classic
// one-goroutine scheduler loop — only which stack evaluates each
// decision changes, and exactly one of them runs at any instant.
//
// The poster is the thread the previous decision granted, so when that
// grant was state-neutral, the kept enabled set is stale at most in the
// poster's membership: the poster leaves the set when its new request is
// not executable. Posting Exit (which enables the thread's joiners) or
// ChanRecv (which enables a blocked unbuffered sender) forces a rescan.
func (s *Scheduler) schedule(poster *Thread) bool {
	if poster != nil {
		switch poster.pending.Kind {
		case event.KindExit:
			s.retire(poster)
			s.enabledValid = false
		case event.KindChanRecv:
			s.enabledValid = false
		case event.KindAcquire:
			// checkRealDeadlock (Algorithm 4): the moment a thread wants
			// a lock, see whether its wait-for chain now closes a cycle.
			if dl := s.cycleThrough(poster); dl != nil {
				s.deadlock = dl
			}
		}
		if s.enabledValid && !s.executable(poster) {
			i := slices.Index(s.enabledBuf, poster.id)
			s.enabledBuf = slices.Delete(s.enabledBuf, i, i+1)
		}
	}
	for {
		if s.deadlock != nil {
			s.outcome = Deadlock
			return false
		}
		if s.panicVal != nil {
			return false
		}
		if s.steps >= s.opts.MaxSteps {
			s.outcome = StepLimit
			// Even with runnable threads left, sole-unblocker chains
			// (join/lock waits on stuck threads) are already provably
			// blocked forever — a partial deadlock the cut-off run can
			// still report soundly.
			s.blocked = s.classifyBlocked(len(s.enabledSet()))
			return false
		}
		enabled := s.enabledSet()
		if len(enabled) == 0 {
			if s.aliveCount() == 0 {
				s.outcome = Completed
			} else if dl := s.findDeadlock(); dl != nil {
				s.deadlock = dl
				s.outcome = Deadlock
			} else {
				s.outcome = Stall
				// No runner exists, so every blocked thread is stuck
				// forever; classify the blocking-op deadlock.
				s.blocked = s.classifyBlocked(0)
			}
			return false
		}
		// A lone thread at a Step, granted a state-neutral request by the
		// previous decision, faces forced decisions only: a SoloPolicy
		// takes them in bulk (see SoloPolicy).
		t := s.neutral
		if t != nil && s.solo != nil && len(enabled) == 1 && t.pending.Kind == event.KindStep && s.soloRun(t) {
			if t.pending.Steps > 0 {
				continue // the policy stopped part-way through the batch
			}
		} else {
			s.steps++
			t = s.threads[s.policy.Next(s, enabled)]
			if !s.applyRequest(t) {
				continue // mid-batch grant or scheduler error: the loop goes on
			}
		}
		if t == poster {
			return true // self-grant: poster's post returns, no switch
		}
		s.handoff = t
		s.crossGrants++
		return false
	}
}

// teardown ends every thread still alive. A machine is dropped without
// being resumed. A Go body is resumed once with an abort so that it
// unwinds, leaving its coroutine parked between bodies for the shell's
// next run.
func (s *Scheduler) teardown() {
	for _, t := range s.threads {
		if !t.alive || t.pending.Kind == event.KindExit {
			continue
		}
		switch {
		case t.machine != nil:
			t.machine.Drop()
		case t.next != nil:
			t.aborted = true
			t.next()
		default:
			continue
		}
		s.unwound++
	}
}

// recycle resets a shell whose execution has ended. It keeps the RNG,
// scratch buffers, table capacity, lock-state free list and parked
// thread shells, and the object arena unless the run published its
// objects; everything observable is reset. Thread shells park in
// reverse TID order, so the next run's threads take them back in TID
// order: its main thread gets the main thread's shell, which has the
// coroutine a CLF main thread starts on, and a spawned machine thread
// gets a shell that needs none.
func (s *Scheduler) recycle(published bool) {
	for i := len(s.threads) - 1; i >= 0; i-- {
		s.threads[i].recycle()
		*s.parked = append(*s.parked, s.threads[i])
		s.threads[i] = nil
	}
	s.threads = s.threads[:0]
	for i := range s.alive {
		s.alive[i] = nil
	}
	s.alive = s.alive[:0]
	s.enabledValid = false
	s.neutral = nil
	for i, ls := range s.locks {
		if ls == nil {
			continue
		}
		ls.recycle()
		s.freeLocks = append(s.freeLocks, ls)
		s.locks[i] = nil
	}
	s.locks = s.locks[:0]
	clear(s.latches)
	s.alloc.Reset(published)
	s.opts = Options{}
	s.policy = nil
	s.solo = nil
	s.steps = 0
	s.seq = 0
	s.acquires = 0
	s.crossGrants = 0
	s.unwound = 0
	s.deadlock = nil
	s.blocked = nil
	s.panicVal = nil
	s.evBuf = Ev{}
}

// AliveTIDs returns the ids of all non-terminated threads in ascending
// order. Policies use it to inspect blocked threads, which never appear
// in the enabled set. The returned slice is a reused buffer, valid only
// until the next AliveTIDs call; callers must not retain it.
func (s *Scheduler) AliveTIDs() []event.TID {
	out := s.aliveBuf[:0]
	for _, t := range s.alive {
		out = append(out, t.id)
	}
	s.aliveBuf = out
	return out
}

// NumThreads returns the number of threads spawned so far, terminated
// ones included. TIDs are minted densely from 0 in spawn order, so the
// run's threads are exactly 0 .. NumThreads()-1.
func (s *Scheduler) NumThreads() int { return len(s.threads) }

// aliveCount returns how many threads have not terminated.
func (s *Scheduler) aliveCount() int { return len(s.alive) }

// dropAlive removes t from the sorted alive list when it terminates.
func (s *Scheduler) dropAlive(t *Thread) {
	for i, at := range s.alive {
		if at == t {
			copy(s.alive[i:], s.alive[i+1:])
			s.alive[len(s.alive)-1] = nil
			s.alive = s.alive[:len(s.alive)-1]
			return
		}
	}
}

// Enabled reports whether thread t's pending request is executable now.
func (s *Scheduler) Enabled(t event.TID) bool {
	return s.threads[t].alive && s.executable(s.threads[t])
}

// enabledSet returns the enabled set: the kept one when it is valid,
// else a fresh scan, which it keeps.
func (s *Scheduler) enabledSet() []event.TID {
	if !s.enabledValid {
		s.enabled()
		s.enabledValid = true
	}
	return s.enabledBuf
}

// enabled returns the executable threads in ascending TID order, in a
// buffer reused across steps.
func (s *Scheduler) enabled() []event.TID {
	out := s.enabledBuf[:0]
	for _, t := range s.alive {
		if s.executable(t) {
			out = append(out, t.id)
		}
	}
	s.enabledBuf = out
	return out
}

// executable reports whether t's pending request can run immediately.
func (s *Scheduler) executable(t *Thread) bool {
	r := &t.pending
	switch r.Kind {
	case event.KindAcquire:
		if r.WaitResume && !t.notified {
			return false
		}
		ls := s.lookupLock(r.Obj.ID)
		return ls == nil || ls.free() || ls.holder == t.id
	case event.KindJoin:
		return !s.threads[r.Target].alive
	case event.KindAwait:
		return s.latches[r.Obj.ID].set
	case event.KindChanSend:
		// A send on a closed channel is executable so the misuse error
		// fires at the send, matching Go's panic.
		ch := r.Ch
		if ch.closed {
			return true
		}
		if ch.capacity > 0 {
			return len(ch.buf) < ch.capacity
		}
		return s.pendingReceiver(ch) != nil
	case event.KindChanRecv:
		return t.recvReady || len(r.Ch.buf) > 0 || r.Ch.closed
	case event.KindWGWait:
		return r.WG.count == 0
	case event.KindExit:
		return false
	default:
		return true
	}
}

// emit delivers an event to every observer. The event is passed by
// pointer so observer-less executions never copy the ~120-byte Ev; each
// observer still receives its own value copy. Without observers only
// the sequence number advances — the Ev fields are never read, which is
// what lets applyRequest scribble them into a stale scratch buffer.
func (s *Scheduler) emit(ev *Ev) {
	s.seq++
	if !s.observing {
		return
	}
	ev.Seq = s.seq
	for _, o := range s.opts.Observers {
		o.OnEvent(*ev)
	}
}

// snapshotLocks publishes t's lock stack for an event, but only when
// someone is listening. The snapshot is an O(1) share of the live stack;
// the thread's copy-on-write watermark guarantees it is never mutated.
func (s *Scheduler) snapshotLocks(t *Thread) []*object.Obj {
	if len(s.opts.Observers) == 0 {
		return nil
	}
	return t.publishLocks()
}

// snapshotContext publishes t's context stack for an event; O(1), like
// snapshotLocks.
func (s *Scheduler) snapshotContext(t *Thread) event.Context {
	if len(s.opts.Observers) == 0 {
		return nil
	}
	return t.publishCtx()
}

// applyRequest applies t's pending request and reports whether t must
// now be granted the user-execution turn; false means the scheduling
// loop keeps the baton (a mid-batch Work grant, or a scheduler error
// that ends the run). The caller guarantees the request is executable.
func (s *Scheduler) applyRequest(t *Thread) bool {
	// r aliases the pending request rather than copying it; every read
	// through r happens before the grant that lets t repost.
	r := &t.pending
	// base is the event under construction. It lives in the scheduler's
	// scratch buffer so the unobserved hot path never zeroes or copies a
	// ~120-byte Ev per request: the branches' field stores land on stale
	// scratch that emit ignores. With observers the buffer is rebuilt
	// from scratch here, so no field of a previous event can leak.
	base := &s.evBuf
	if s.observing {
		*base = Ev{Kind: r.Kind, Thread: t.id, ThreadObj: t.obj, Loc: r.Loc}
	}

	switch r.Kind {
	case event.KindAcquire:
		ls := s.lock(r.Obj)
		if ls.holder == t.id {
			ls.depth++ // re-acquire: invisible to the analyses
		} else {
			ls.holder = t.id
			ls.depth = 1
			s.acquires++
			site := r.Loc
			if r.WaitResume {
				// Returning from wait restores the monitor exactly as
				// it was: previous depth, original acquire site.
				ls.depth = t.waitDepth
				t.notified = false
				site = t.waitLoc
			}
			held := s.snapshotLocks(t)
			t.pushCtx(site)
			t.pushLock(r.Obj)
			base.Obj = r.Obj
			base.LockSet = held
			base.Context = s.snapshotContext(t)
			s.emit(base)
		}

	case event.KindWait:
		ls := s.lookupLock(r.Obj.ID)
		if ls == nil || ls.holder != t.id {
			s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s waits on %s it does not hold", t.id, r.Obj)}
			return false
		}
		// Release the monitor in full, remembering the depth and the
		// original acquire site for the resume.
		t.waitDepth = ls.depth
		t.notified = false
		ls.depth = 0
		ls.holder = event.NoThread
		ls.waitset = append(ls.waitset, t.id)
		n := len(t.lockStack) - 1
		if n < 0 || t.lockStack[n].ID != r.Obj.ID {
			s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s waits on %s out of nesting order", t.id, r.Obj)}
			return false
		}
		t.waitLoc = t.ctxStack[n]
		t.lockStack = t.lockStack[:n]
		t.ctxStack = t.ctxStack[:n]
		base.Obj = r.Obj
		base.LockSet = s.snapshotLocks(t)
		s.emit(base)

	case event.KindNotify:
		ls := s.lookupLock(r.Obj.ID)
		if ls == nil || ls.holder != t.id {
			s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s notifies %s it does not hold", t.id, r.Obj)}
			return false
		}
		woken := s.wake(ls, r.All)
		base.Obj = r.Obj
		for _, w := range woken {
			base.Target = w
			s.emit(base)
		}
		if len(woken) == 0 {
			base.Target = event.NoThread
			s.emit(base)
		}

	case event.KindRelease:
		ls := s.lookupLock(r.Obj.ID)
		if ls == nil || ls.holder != t.id {
			s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s releases %s it does not hold", t.id, r.Obj)}
			return false
		}
		ls.depth--
		if ls.depth == 0 {
			ls.holder = event.NoThread
			n := len(t.lockStack) - 1
			if n < 0 || t.lockStack[n].ID != r.Obj.ID {
				s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s releases %s out of nesting order", t.id, r.Obj)}
				return false
			}
			t.lockStack = t.lockStack[:n]
			t.ctxStack = t.ctxStack[:n]
			base.Obj = r.Obj
			base.LockSet = s.snapshotLocks(t)
			s.emit(base)
		}

	case event.KindCall:
		t.thisStack = append(t.thisStack, r.Recv)
		t.indexer.Call(r.Loc)
		base.Method = r.Method
		base.Obj = r.Recv
		s.emit(base)

	case event.KindReturn:
		if n := len(t.thisStack); n > 0 {
			t.thisStack = t.thisStack[:n-1]
		}
		t.indexer.Return()
		base.Method = r.Method
		s.emit(base)

	case event.KindNew:
		idx := t.indexer.Snapshot(r.Loc, &s.alloc)
		obj := s.alloc.New(r.Type, r.Loc, t.this(), idx)
		t.retObj = obj
		base.Obj = obj
		s.emit(base)

	case event.KindSpawn:
		tobj := r.ThreadObj
		if tobj == nil {
			idx := t.indexer.Snapshot(r.Loc, &s.alloc)
			tobj = s.alloc.New("Thread", r.Loc, t.this(), idx)
		}
		m, _ := r.Val.(Machine)
		child := s.newThread(r.Name, tobj, r.Body, m)
		t.retThread = child
		base.Obj = tobj
		base.Target = child.id
		s.emit(base)
		s.retireIfExited(child)

	case event.KindJoin:
		base.Target = r.Target
		base.Obj = s.threads[r.Target].obj
		s.emit(base)

	case event.KindAwait, event.KindSignal:
		l := s.latches[r.Obj.ID]
		if r.Kind == event.KindSignal {
			l.set = true
		}
		base.Obj = r.Obj
		s.emit(base)

	case event.KindChanSend:
		ch := r.Ch
		if ch.closed {
			s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s sends on closed channel %s", t.id, ch.obj)}
			return false
		}
		if ch.capacity > 0 {
			ch.buf = append(ch.buf, r.Val)
		} else {
			// Rendezvous: hand the value straight to the chosen receiver;
			// it becomes enabled and takes the value at its own grant.
			recv := s.pendingReceiver(ch)
			recv.recvVal = r.Val
			recv.recvReady = true
		}
		base.Obj = ch.obj
		s.emit(base)

	case event.KindChanRecv:
		ch := r.Ch
		switch {
		case t.recvReady:
			t.retVal = t.recvVal
			t.recvVal = nil
			t.recvReady = false
		case len(ch.buf) > 0:
			t.retVal = ch.buf[0]
			copy(ch.buf, ch.buf[1:])
			ch.buf[len(ch.buf)-1] = nil
			ch.buf = ch.buf[:len(ch.buf)-1]
		default: // closed and drained: the zero value, like Go
			t.retVal = nil
		}
		base.Obj = ch.obj
		s.emit(base)

	case event.KindChanClose:
		ch := r.Ch
		if ch.closed {
			s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s closes closed channel %s", t.id, ch.obj)}
			return false
		}
		ch.closed = true
		base.Obj = ch.obj
		s.emit(base)

	case event.KindWGAdd:
		wg := r.WG
		wg.count += r.Delta
		if wg.count < 0 {
			s.panicVal = &MisuseError{Loc: r.Loc, Msg: fmt.Sprintf("%s drives WaitGroup %s counter negative", t.id, wg.obj)}
			return false
		}
		base.Obj = wg.obj
		s.emit(base)

	case event.KindWGWait:
		base.Obj = r.WG.obj
		s.emit(base)

	case event.KindStep, event.KindYield:
		s.emit(base)
		if r.Steps > 1 {
			// Batched invisible steps (Ctx.Work): account the grant
			// locally and leave the thread parked. The decremented
			// request is indistinguishable from a freshly posted Step, no
			// scheduler state the enabled set reads has changed, and the
			// policy is consulted once per step either way — so the
			// decision sequence, RNG draws and event stream are exactly
			// those of the per-step protocol, minus a switch to the
			// thread and back. While t is the only enabled thread, a
			// SoloPolicy takes the batch's forced decisions in one call.
			r.Steps--
			s.neutral = t
			return false
		}

	default:
		s.panicVal = fmt.Errorf("sched: unexpected request %v", r)
		return false
	}

	if neutralGrant(r.Kind) {
		s.neutral = t
	} else {
		s.neutral = nil
		s.enabledValid = false
	}
	return true
}

// neutralGrant reports whether granting a request of kind k leaves
// every other thread's executability as it was: the grant changes no
// lock, latch, channel, WaitGroup or thread liveness.
func neutralGrant(k event.Kind) bool {
	switch k {
	case event.KindStep, event.KindYield, event.KindCall, event.KindReturn,
		event.KindNew, event.KindJoin, event.KindAwait:
		return true
	}
	return false
}

// soloRun offers t's Step, as far as the step limit allows, to the
// SoloPolicy while t is the only enabled thread, and applies the
// decisions it takes: one Step event each, as the per-step loop would
// emit them. It reports whether the policy took any.
func (s *Scheduler) soloRun(t *Thread) bool {
	r := &t.pending
	left := max(r.Steps, 1) // a single Step posts 0 or 1
	took := s.solo.Solo(s, t.id, min(left, s.opts.MaxSteps-s.steps))
	if took == 0 {
		return false
	}
	if s.observing {
		base := &s.evBuf
		*base = Ev{Kind: r.Kind, Thread: t.id, ThreadObj: t.obj, Loc: r.Loc}
		for range took {
			s.steps++
			s.emit(base)
		}
	} else {
		s.steps += took
		s.seq += uint64(took)
	}
	r.Steps = left - took
	return true
}

// wake notifies one (or all) of ls's waiters and returns the woken
// thread ids. The single-notify choice mirrors the JVM's arbitrary
// selection deterministically: it hashes the run's seed with the event
// sequence number, so it is fixed by what a replay reproduces, the
// seed and the schedule so far. It draws nothing from the policy's
// RNG stream, which a replay does not consume the way the recorded
// policy did.
func (s *Scheduler) wake(ls *lockState, all bool) []event.TID {
	if len(ls.waitset) == 0 {
		return nil
	}
	var woken []event.TID
	if all {
		woken = append(woken, ls.waitset...)
		ls.waitset = nil
	} else {
		i := wakeIndex(s.opts.Seed, s.seq, len(ls.waitset))
		woken = append(woken, ls.waitset[i])
		ls.waitset = append(ls.waitset[:i], ls.waitset[i+1:]...)
	}
	for _, w := range woken {
		s.threads[w].notified = true
	}
	return woken
}

// wakeIndex picks which of n waiters a single notify wakes: the
// splitmix64 finalizer over seed and seq, reduced mod n.
func wakeIndex(seed int64, seq uint64, n int) int {
	z := uint64(seed) + seq*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// waitsFor returns the thread t's pending acquire waits on — the holder
// of a lock held by someone else — or NoThread when t is not blocked on
// a lock. It is t's edge in the wait-for graph.
func (s *Scheduler) waitsFor(t *Thread) event.TID {
	if !t.alive || t.pending.Kind != event.KindAcquire {
		return event.NoThread
	}
	ls := s.lookupLock(t.pending.Obj.ID)
	if ls == nil || ls.free() || ls.holder == t.id {
		return event.NoThread
	}
	return ls.holder
}

// cycleThrough reports a deadlock cycle that passes through t, if t's new
// wait edge closes one.
func (s *Scheduler) cycleThrough(t *Thread) *DeadlockInfo {
	cyc := s.waitChain(t)
	if cyc == nil {
		return nil
	}
	return s.describeCycle(cyc)
}

// waitChain walks t's chain in the wait-for graph and returns the cycle
// it runs into, nil for none. The wait-for relation is functional — a
// blocked thread waits on one lock, a lock has one holder — so the walk
// follows t -> holder(want(t)) -> ... and stops at a thread not blocked
// on another thread's lock, or on returning to a thread already on the
// chain; the cycle is the chain from that thread on. The result is a
// reused buffer, valid until the next call.
func (s *Scheduler) waitChain(t *Thread) []event.TID {
	chain := s.chainBuf[:0]
	for {
		// Real chains are tiny, so a linear membership scan beats a map.
		for i, c := range chain {
			if c == t.id {
				s.chainBuf = chain
				return chain[i:]
			}
		}
		h := s.waitsFor(t)
		if h == event.NoThread {
			s.chainBuf = chain
			return nil
		}
		chain = append(chain, t.id)
		t = s.threads[h]
	}
}

// findDeadlock looks for any wait-for cycle in a stalled state: the
// cycle on the chain of the lowest-TID alive thread whose chain closes
// one, rotated to start at its smallest TID. Every wait-for edge is
// added by an acquire post, which cycleThrough already checks, so this
// is the fallback that catches a cycle those checks missed.
func (s *Scheduler) findDeadlock() *DeadlockInfo {
	for _, t := range s.alive {
		if cyc := s.waitChain(t); cyc != nil {
			mi := slices.Index(cyc, slices.Min(cyc))
			return s.describeCycle(append(cyc[mi:len(cyc):len(cyc)], cyc[:mi]...))
		}
	}
	return nil
}

// describeCycle fills in the DeadlockInfo for a TID cycle. A
// DeadlockInfo outlives the execution and the reuse of its shell, so
// the edge stacks are copied, and so are the objects they name (see
// detacher). Every edge's Held and Context are carved, capacity-capped,
// out of one array per slice kind.
func (s *Scheduler) describeCycle(cyc []event.TID) *DeadlockInfo {
	d := &s.detach
	nheld, nctx := 0, 0
	for _, tid := range cyc {
		t := s.threads[tid]
		d.add(t.obj)
		d.add(t.pending.Obj)
		for _, l := range t.lockStack {
			d.add(l)
		}
		nheld += len(t.lockStack)
		nctx += len(t.ctxStack) + 1
	}
	d.copy()
	held := make([]*object.Obj, nheld)
	ctxs := make(event.Context, nctx)
	info := &DeadlockInfo{Step: s.steps, Edges: make([]DeadlockEdge, len(cyc))}
	for i, tid := range cyc {
		t := s.threads[tid]
		n := len(t.lockStack)
		h := held[:n:n]
		held = held[n:]
		for j, l := range t.lockStack {
			h[j] = d.of(l)
		}
		n = len(t.ctxStack) + 1
		ctx := ctxs[:n:n]
		ctxs = ctxs[n:]
		copy(ctx, t.ctxStack)
		ctx[n-1] = t.pending.Loc
		info.Edges[i] = DeadlockEdge{
			Thread:    tid,
			ThreadObj: d.of(t.obj),
			Want:      d.of(t.pending.Obj),
			WantLoc:   t.pending.Loc,
			Held:      h,
			Context:   ctx,
		}
	}
	d.done()
	return info
}

// RandomPolicy is the paper's Algorithm 2: pick a uniformly random
// enabled thread at every step.
type RandomPolicy struct{}

// Next picks uniformly from enabled.
func (RandomPolicy) Next(s *Scheduler, enabled []event.TID) event.TID {
	return enabled[s.Rand().Intn(len(enabled))]
}

// Solo takes all n forced decisions: each is one draw.
func (RandomPolicy) Solo(s *Scheduler, _ event.TID, n int) int {
	s.SkipDraws(n)
	return n
}
