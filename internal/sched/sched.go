// Package sched implements the deterministic cooperative scheduler that
// substitutes for the JVM thread scheduler the paper instruments.
//
// Each simulated thread runs as a coroutine (iter.Pull): a thread posts
// its next observable operation (a Request) and runs the scheduling loop
// on its own stack, between its post and its next grant. The loop picks
// one enabled thread per step (delegating the choice to a pluggable
// Policy) and executes its request; when the chosen thread is the
// poster, the grant is a plain return with zero switches, and only a
// grant to a different thread yields to Run's goroutine, which resumes
// the chosen coroutine directly — no channel and no trip through the Go
// run queue. Exactly one stack runs at any instant and the decision
// sequence is identical to a strict lockstep loop, so an execution
// remains a pure function of (program, policy, seed). This is what makes
// the paper's probabilities measurable and its experiments replayable.
//
// Invisible work (Ctx.Work) is batched: a thread posts one request for n
// steps and receives its n grants without reposting, so the policy is
// still consulted — and the step counter still advances — once per step,
// with no per-step handshake. The schedule is that of n separate Steps;
// the batching goldens (batching_test.go in the module root) pin it.
//
// A run that ends with threads still blocked tears them down: each is
// resumed once with an abort and unwinds, its stack's deferred Returns
// and Releases skipping their posts (Ctx.Aborting) rather than
// re-raising the abort frame by frame.
//
// The scheduler confirms resource deadlocks the way Algorithm 4 does: the
// moment an Acquire blocks, it checks the wait-for graph for a cycle and,
// if one exists, ends the run with a DeadlockInfo carrying the full
// context of every edge.
//
// The execution hot path is engineered to be allocation-free at steady
// state (see DESIGN.md "Performance"): a cross-thread grant is two
// direct coroutine switches, event construction is skipped entirely when
// no observer is attached, event snapshots of lock and context stacks
// are O(1) persistent shares guarded by copy-on-write watermarks rather
// than per-event clones, lock state is a dense slice indexed by object
// ID, the wait-for graph and the enabled set are reused scratch buffers,
// and a Pool recycles whole scheduler/thread shells — coroutines
// included — across the seeded runs of a campaign.
package sched

import (
	"fmt"
	"math/rand"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
	"dlfuzz/internal/waitgraph"
)

// Policy decides which enabled thread runs next. Implementations receive
// the scheduler for read access to thread state (pending requests, lock
// sets, contexts, abstractions) and its seeded RNG.
//
// Next must return one of the TIDs in enabled; enabled is non-empty and
// sorted ascending. The slice is a buffer the scheduler reuses between
// steps: policies may read it freely during the call but must not retain
// it.
type Policy interface {
	Next(s *Scheduler, enabled []event.TID) event.TID
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

// Scheduler runs one execution of a simulated concurrent program.
type Scheduler struct {
	opts    Options
	rng     *rand.Rand
	policy  Policy
	alloc   object.Allocator
	threads []*Thread
	// alive lists the non-terminated threads in ascending TID order (ids
	// are minted in spawn order, so appends keep it sorted). The per-step
	// scans — enabled set, alive set, wait-for graph — walk this list
	// instead of all of threads, so long-dead threads cost nothing.
	alive []*Thread
	// latches and locks are allocated lazily: most workloads use no
	// latches, and pooled schedulers keep the (cleared) containers across
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

	// handoff is the thread a cross-grant chose: the granting coroutine
	// yields to Run's goroutine, which resumes handoff (see schedule).
	handoff *Thread

	// pool, when non-nil, supplies recycled thread shells and receives
	// this scheduler back after Pool.Run.
	pool *Pool
	// freeLocks is the lockState free list, retained across pooled runs.
	freeLocks []*lockState
	// wfg, enabledBuf and aliveBuf are reusable scratch state for the
	// per-step hot path.
	wfg        *waitgraph.Graph
	enabledBuf []event.TID
	aliveBuf   []event.TID
	// enabledValid marks enabledBuf as still describing the current
	// state: a mid-batch Step grant mutates nothing the enabled set
	// depends on, so Run reuses the buffer instead of rescanning.
	enabledValid bool
	// observing caches len(opts.Observers) > 0. Without observers the
	// event stream has no consumer, so applyRequest skips materializing
	// Ev values entirely (evBuf is its write-only scratch) and emit only
	// advances seq.
	observing bool
	evBuf     Ev
}

// New returns a scheduler configured by opts.
func New(opts Options) *Scheduler {
	s := &Scheduler{}
	s.init(opts)
	return s
}

// init (re)configures a fresh or recycled scheduler for one execution.
// Recycled schedulers arrive with zeroed run state (see Pool.put); init
// only has to re-arm the options, RNG and policy.
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
		src := &fastSource{}
		src.Seed(opts.Seed)
		s.rng = rand.New(src)
	} else {
		// Re-seeding produces the identical stream to a fresh
		// rand.New(rand.NewSource(seed)), without the two allocations.
		s.rng.Seed(opts.Seed)
	}
	s.policy = opts.Policy
	if s.policy == nil {
		s.policy = RandomPolicy{}
	}
	s.observing = len(opts.Observers) > 0
}

// Rand returns the execution's RNG. Policies draw from it so that one
// seed determines the whole schedule.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

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
// scheduling point: only its coroutine runs until it yields, so
// determinism holds. Pooled shells keep their coroutine parked between
// bodies, so re-spawning one skips creating it and keeps its grown stack.
func (s *Scheduler) newThread(name string, obj *object.Obj, body func(*Ctx)) *Thread {
	t := s.takeThread()
	t.id = event.TID(len(s.threads))
	t.name = name
	t.obj = obj
	t.sched = s
	t.alive = true
	t.body = body
	s.threads = append(s.threads, t)
	s.alive = append(s.alive, t) // ids are minted ascending, so alive stays sorted
	if t.next == nil {
		t.startCoro()
	}
	t.next()
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
// panic) on the way out.
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
	t.postExit()
}

// postExit posts the Exit request, which is never granted. A body that
// never reached a scheduling point leaves it to its creator to retire;
// otherwise the scheduling loop retires the thread and runs until the
// turn moves on or the run ends. Either way the coroutine then parks
// between bodies.
func (t *Thread) postExit() {
	t.pending = Request{Kind: event.KindExit}
	if t.posted {
		t.sched.schedule(t)
	}
}

// takeThread returns a recycled thread shell from the pool, or a fresh
// one. Recycled shells were fully reset at recycle time; their coroutine
// and stack/indexer capacity carry over.
func (s *Scheduler) takeThread() *Thread {
	if s.pool != nil {
		if t := s.pool.takeThread(); t != nil {
			return t
		}
	}
	t := &Thread{indexer: object.NewIndexer()}
	t.ctx.t = t
	return t
}

// Run executes main as the initial thread and returns the result.
// It panics if a thread body panicked.
func (s *Scheduler) Run(main func(*Ctx)) *Result {
	s.outcome = Completed
	s.blocked = nil
	s.drive(main)
	if s.panicVal != nil {
		panic(s.panicVal)
	}
	return &Result{
		Outcome:   s.outcome,
		Deadlock:  s.deadlock,
		Blocked:   s.blocked,
		Steps:     s.steps,
		Events:    s.seq,
		Acquires:  s.acquires,
		Spawned:   len(s.threads),
		Allocated: s.alloc.Count(),
	}
}

// drive runs the execution on Run's goroutine: it schedules until the
// main thread's first grant, then resumes each cross-granted thread in
// turn until the run is over. Teardown is deferred so that a policy
// panic on this goroutine still unwinds every parked thread.
func (s *Scheduler) drive(main func(*Ctx)) {
	defer s.teardown()
	mainObj := s.alloc.New("Thread", "main", nil, []object.IndexEntry{{Loc: "main", Count: 1}})
	s.retireIfExited(s.newThread("main", mainObj, main))
	s.schedule(nil)
	for t := s.handoff; t != nil; t = s.handoff {
		s.handoff = nil
		t.next()
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

// schedule is the scheduling loop. It runs on the coroutine of a thread
// whose user code just posted (poster), or on Run's goroutine right
// after the main thread's first post (poster == nil). It returns true
// when it granted the poster itself, false when the poster must yield:
// either the turn went to s.handoff, or the run is over (handoff nil).
//
// Each iteration takes one scheduling decision and applies the chosen
// request. Granting the poster itself simply returns: user code resumes
// on this very stack with zero switches — this is what makes runs of
// consecutive grants to one thread (program prologues, solo sections)
// switch-free. Granting another thread records it in s.handoff; the
// poster yields to Run's goroutine, which resumes the chosen thread, and
// that thread continues the loop at its next post. The decision
// sequence, RNG draws and event stream are identical to a classic
// one-goroutine scheduler loop — only which stack evaluates each
// decision changes, and exactly one of them runs at any instant.
func (s *Scheduler) schedule(poster *Thread) bool {
	if poster != nil {
		switch poster.pending.Kind {
		case event.KindExit:
			s.retire(poster)
		case event.KindAcquire:
			// checkRealDeadlock (Algorithm 4): the moment a thread wants
			// a lock, see whether the wait-for graph now has a cycle.
			if dl := s.cycleThrough(poster); dl != nil {
				s.deadlock = dl
			}
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
			s.blocked = s.classifyBlocked(len(s.enabled()))
			return false
		}
		var enabled []event.TID
		if s.enabledValid {
			// The previous decision was a mid-batch Step grant, which
			// mutates no state the enabled set depends on.
			enabled = s.enabledBuf
		} else {
			enabled = s.enabled()
		}
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
		s.steps++
		t := s.threads[s.policy.Next(s, enabled)]
		if !s.applyRequest(t) {
			continue // mid-batch grant or scheduler error: the loop goes on
		}
		if t == poster {
			return true // self-grant: poster's post returns, no switch
		}
		s.handoff = t
		return false
	}
}

// teardown resumes every still-blocked thread once with an abort so its
// body unwinds, leaving each coroutine parked between bodies. A pooled
// shell keeps its coroutine for the next run; a fresh scheduler's shells
// are stopped, so repeated executions never leak.
func (s *Scheduler) teardown() {
	for _, t := range s.threads {
		if t.alive && t.pending.Kind != event.KindExit && t.next != nil {
			t.aborted = true
			t.next()
		}
		if s.pool == nil {
			t.stop()
		}
	}
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
		idx := t.indexer.Snapshot(r.Loc)
		obj := s.alloc.New(r.Type, r.Loc, t.this(), idx)
		t.retObj = obj
		base.Obj = obj
		s.emit(base)

	case event.KindSpawn:
		tobj := r.ThreadObj
		if tobj == nil {
			idx := t.indexer.Snapshot(r.Loc)
			tobj = s.alloc.New("Thread", r.Loc, t.this(), idx)
		}
		child := s.newThread(r.Name, tobj, r.Body)
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
			// thread and back.
			r.Steps--
			s.enabledValid = true
			return false
		}

	default:
		s.panicVal = fmt.Errorf("sched: unexpected request %v", r)
		return false
	}

	s.enabledValid = false
	return true
}

// wake notifies one (or all) of ls's waiters and returns the woken
// thread ids. The single-notify choice is drawn from the seeded RNG,
// mirroring the JVM's arbitrary selection deterministically.
func (s *Scheduler) wake(ls *lockState, all bool) []event.TID {
	if len(ls.waitset) == 0 {
		return nil
	}
	var woken []event.TID
	if all {
		woken = append(woken, ls.waitset...)
		ls.waitset = nil
	} else {
		i := s.rng.Intn(len(ls.waitset))
		woken = append(woken, ls.waitset[i])
		ls.waitset = append(ls.waitset[:i], ls.waitset[i+1:]...)
	}
	for _, w := range woken {
		s.threads[w].notified = true
	}
	return woken
}

// buildWaitGraph constructs the wait-for graph over currently blocked
// threads (alive, pending Acquire on a lock held by someone else) in the
// scheduler's reusable scratch graph.
func (s *Scheduler) buildWaitGraph() *waitgraph.Graph {
	if s.wfg == nil {
		s.wfg = waitgraph.New()
	}
	g := s.wfg
	g.Reset()
	for _, t := range s.alive {
		if t.pending.Kind != event.KindAcquire {
			continue
		}
		ls := s.lookupLock(t.pending.Obj.ID)
		if ls == nil || ls.free() || ls.holder == t.id {
			continue
		}
		g.Wait(t.id, ls.holder)
	}
	return g
}

// cycleThrough reports a deadlock cycle that passes through t, if t's new
// wait edge closes one.
func (s *Scheduler) cycleThrough(t *Thread) *DeadlockInfo {
	g := s.buildWaitGraph()
	cyc := g.CycleFrom(t.id)
	if cyc == nil {
		return nil
	}
	return s.describeCycle(cyc)
}

// findDeadlock looks for any wait-for cycle in a stalled state.
func (s *Scheduler) findDeadlock() *DeadlockInfo {
	cycles := s.buildWaitGraph().Cycles()
	if len(cycles) == 0 {
		return nil
	}
	return s.describeCycle(cycles[0])
}

// describeCycle fills in the DeadlockInfo for a TID cycle. The edge
// stacks are deep-copied: a DeadlockInfo outlives the execution (and any
// pooled reuse of its scheduler).
func (s *Scheduler) describeCycle(cyc []event.TID) *DeadlockInfo {
	info := &DeadlockInfo{Step: s.steps, Edges: make([]DeadlockEdge, 0, len(cyc))}
	for _, tid := range cyc {
		t := s.threads[tid]
		held := make([]*object.Obj, len(t.lockStack))
		copy(held, t.lockStack)
		ctx := make(event.Context, len(t.ctxStack), len(t.ctxStack)+1)
		copy(ctx, t.ctxStack)
		ctx = append(ctx, t.pending.Loc)
		info.Edges = append(info.Edges, DeadlockEdge{
			Thread:    tid,
			ThreadObj: t.obj,
			Want:      t.pending.Obj,
			WantLoc:   t.pending.Loc,
			Held:      held,
			Context:   ctx,
		})
	}
	return info
}

// RandomPolicy is the paper's Algorithm 2: pick a uniformly random
// enabled thread at every step.
type RandomPolicy struct{}

// Next picks uniformly from enabled.
func (RandomPolicy) Next(s *Scheduler, enabled []event.TID) event.TID {
	return enabled[s.Rand().Intn(len(enabled))]
}
