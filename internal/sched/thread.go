package sched

import (
	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// abortPanic is raised in a Go body's coroutine when the scheduler tears
// down an unfinished execution (deadlock, stall, step limit) so its body
// unwinds instead of staying parked; a Machine is dropped instead (see
// teardown). Each aborted thread raises it once:
// the scheduler's own deferred posts (Call's Return, Sync's Release) skip
// themselves while the thread is aborting, so the one panic unwinds the
// whole stack.
type abortPanic struct{}

// Thread is one simulated thread. A Go body runs as a coroutine (see
// Thread.loop); a Machine body runs with plain calls on whichever stack
// grants it the turn (see Thread.resume). Of Run's goroutine and the
// run's coroutines exactly one runs at any instant, so every field is
// touched by one flow of control at a time.
type Thread struct {
	id    event.TID
	name  string
	obj   *object.Obj // the thread object, carries the abstractions
	sched *Scheduler

	// next resumes the shell's coroutine until it yields; yield, called
	// on the coroutine, suspends it and returns from next. stop ends a
	// coroutine parked between bodies. next is nil until the coroutine
	// is created, and again once it has returned.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// body is the thread body the coroutine runs at its next resume
	// between bodies; machine, when set, is the body instead (or, after
	// Ctx.Become, the rest of it), and the thread needs no coroutine.
	body    func(*Ctx)
	machine Machine
	// ctx is the reusable Ctx handed to this shell's bodies, so starting
	// a thread does not allocate one.
	ctx Ctx

	pending Request
	alive   bool
	posted  bool // first request posted (the creator got control back)
	aborted bool // teardown told this thread to unwind

	// Return values for requests that produce results (New, Spawn).
	retObj    *object.Obj
	retThread *Thread

	// Dynamic state maintained by the scheduler as the thread executes,
	// mirroring the paper's LockSet[t] and Context[t] stacks.
	//
	// Event snapshots of these stacks are persistent O(1) shares rather
	// than copies: publishLocks/publishCtx hand out a capped prefix of
	// the live stack and raise the shared watermark to its length.
	// Pushes below the watermark would mutate a slot some retained
	// snapshot can still see, so they first copy the live prefix to a
	// fresh array (copy-on-write) and reset the watermark; pushes at or
	// above it, and all pops, reuse the array freely.
	lockStack  []*object.Obj
	ctxStack   event.Context
	lockShared int // watermark: max published lockStack length
	ctxShared  int // watermark: max published ctxStack length

	thisStack []*object.Obj // receiver objects of open calls
	indexer   *object.Indexer

	// Monitor-wait state: notified is set by Notify; waitDepth and
	// waitLoc remember the released re-entrancy depth and the original
	// acquire site to restore on resume.
	notified  bool
	waitDepth int
	waitLoc   event.Loc

	// Channel-receive state: an unbuffered send hands its value to the
	// chosen receiver through recvVal/recvReady (set at the send's
	// grant, consumed at the receive's); retVal is the received value
	// Ctx.Recv returns.
	recvVal   any
	recvReady bool
	retVal    any
}

// ID returns the thread's unique id for this execution.
func (t *Thread) ID() event.TID { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Obj returns the thread object (used for abstraction).
func (t *Thread) Obj() *object.Obj { return t.obj }

// this returns the receiver of the innermost open call, or nil.
func (t *Thread) this() *object.Obj {
	if len(t.thisStack) == 0 {
		return nil
	}
	return t.thisStack[len(t.thisStack)-1]
}

// pushLock appends a lock to the live stack, copying on write when the
// target slot is visible to a retained snapshot.
func (t *Thread) pushLock(o *object.Obj) {
	n := len(t.lockStack)
	if n < t.lockShared {
		// Size the copy from the live length, not the old capacity: a
		// recycled shell keeps its array across runs, so growing from cap
		// would ratchet the capacity up by one on every copy.
		fresh := make([]*object.Obj, n, 2*n+2)
		copy(fresh, t.lockStack)
		t.lockStack = fresh
		t.lockShared = 0
	} else if n == cap(t.lockStack) {
		// append below grows onto a fresh array nothing aliases.
		t.lockShared = 0
	}
	t.lockStack = append(t.lockStack, o)
}

// pushCtx appends an acquire site to the live context stack; same
// copy-on-write discipline as pushLock.
func (t *Thread) pushCtx(site event.Loc) {
	n := len(t.ctxStack)
	if n < t.ctxShared {
		fresh := make(event.Context, n, 2*n+2)
		copy(fresh, t.ctxStack)
		t.ctxStack = fresh
		t.ctxShared = 0
	} else if n == cap(t.ctxStack) {
		t.ctxShared = 0
	}
	t.ctxStack = append(t.ctxStack, site)
}

// publishLocks returns an immutable snapshot of the lock stack in O(1):
// a full-slice-expression prefix (so appends by a holder cannot write
// into the live array) with the watermark raised to protect it. An empty
// stack publishes nil, whether or not an array from an earlier run
// backs it.
func (t *Thread) publishLocks() []*object.Obj {
	n := len(t.lockStack)
	if n == 0 {
		return nil
	}
	if n > t.lockShared {
		t.lockShared = n
	}
	return t.lockStack[:n:n]
}

// publishCtx returns an immutable O(1) snapshot of the context stack;
// nil when it is empty, like publishLocks.
func (t *Thread) publishCtx() event.Context {
	n := len(t.ctxStack)
	if n == 0 {
		return nil
	}
	if n > t.ctxShared {
		t.ctxShared = n
	}
	return t.ctxStack[:n:n]
}

// recycle resets a thread shell for its scheduler's next run. The
// coroutine and the stack/indexer capacity are retained; stack
// slots below the watermarks are still aliased by snapshots retained
// from the finished run (e.g. lockset deps), so only slots at or above
// the watermark are zeroed.
func (t *Thread) recycle() {
	t.name = ""
	t.obj = nil
	t.sched = nil
	t.pending = Request{}
	t.body = nil
	t.machine = nil
	t.alive = false
	t.posted = false
	t.aborted = false
	t.retObj = nil
	t.retThread = nil
	ls := t.lockStack[:cap(t.lockStack)]
	for i := t.lockShared; i < len(ls); i++ {
		ls[i] = nil
	}
	cs := t.ctxStack[:cap(t.ctxStack)]
	for i := t.ctxShared; i < len(cs); i++ {
		cs[i] = event.NoLoc
	}
	t.lockStack = t.lockStack[:0]
	t.ctxStack = t.ctxStack[:0]
	for i := range t.thisStack {
		t.thisStack[i] = nil
	}
	t.thisStack = t.thisStack[:0]
	t.indexer.Reset()
	t.notified = false
	t.waitDepth = 0
	t.waitLoc = event.NoLoc
	t.recvVal = nil
	t.recvReady = false
	t.retVal = nil
}

// postPending hands a Go body's pending request to the scheduler and
// returns once the scheduler has executed it (Ctx.Post is a Machine's
// counterpart). It panics with abortPanic when the
// scheduler is tearing down — including on re-entry from user code that
// posts while an abort is already unwinding (the deferred posts Call and
// Sync own check for the abort first and never get here). Callers (the
// Ctx methods) assign the request literal directly to t.pending (field
// stores, no 100+-byte struct passed by value) before calling.
//
// The first post yields straight back to the creator, which resumed this
// coroutine to run it up to its first scheduling point. Every later post
// runs the scheduling loop on this coroutine: a self-grant returns at
// once, with no switch, and otherwise the coroutine parks until Run's
// goroutine resumes it with its next grant or its abort.
func (t *Thread) postPending() {
	if t.aborted {
		panic(abortPanic{})
	}
	if t.posted && t.sched.schedule(t) {
		return
	}
	t.posted = true
	t.park()
}

// park yields to whoever resumed this coroutine and panics with
// abortPanic when it is resumed by teardown rather than granted.
func (t *Thread) park() {
	if !t.yield(struct{}{}) || t.aborted {
		t.aborted = true
		panic(abortPanic{})
	}
}

// Ctx is the API a simulated thread's body uses to perform observable
// operations. Every method is a scheduling point.
type Ctx struct {
	t *Thread
}

// Thread returns the thread executing this context.
func (c *Ctx) Thread() *Thread { return c.t }

// Scheduler returns the owning scheduler.
func (c *Ctx) Scheduler() *Scheduler { return c.t.sched }

// New allocates an object of the given type at site. The creating object
// (for k-object-sensitivity) is the receiver of the innermost open call.
// Like a *Thread, the object lives as long as the run: the shell reuses
// its memory once the run ends, unless it reached an observer or the
// Result (see object.Allocator.Reset), so a body must not keep it for a
// later run.
func (c *Ctx) New(typ string, site event.Loc) *object.Obj {
	c.t.pending = Request{Kind: event.KindNew, Type: typ, Loc: site}
	c.t.postPending()
	return c.t.retObj
}

// Acquire acquires the monitor of o at site, blocking while another
// thread holds it. Re-entrant.
func (c *Ctx) Acquire(o *object.Obj, site event.Loc) {
	c.t.pending = Request{Kind: event.KindAcquire, Obj: o, Loc: site}
	c.t.postPending()
}

// Release releases one level of the monitor of o at site.
func (c *Ctx) Release(o *object.Obj, site event.Loc) {
	c.t.pending = Request{Kind: event.KindRelease, Obj: o, Loc: site}
	c.t.postPending()
}

// Sync runs body while holding the monitor of o, like a Java
// synchronized(o){...} block whose opening brace is at site.
func (c *Ctx) Sync(o *object.Obj, site event.Loc, body func()) {
	c.Acquire(o, site)
	defer func() {
		if !c.t.aborted {
			c.Release(o, site)
		}
	}()
	body()
}

// Call runs body as a method invocation: `site: Call(name)` on entry and
// a matching Return on exit. recv is the callee's receiver (nil for
// static methods); it becomes the creator of objects body allocates.
func (c *Ctx) Call(name string, recv *object.Obj, site event.Loc, body func()) {
	c.t.pending = Request{Kind: event.KindCall, Method: name, Recv: recv, Loc: site}
	c.t.postPending()
	defer func() {
		if c.t.aborted {
			return
		}
		c.t.pending = Request{Kind: event.KindReturn, Method: name, Loc: site}
		c.t.postPending()
	}()
	body()
}

// Spawn creates and starts a new thread running body. tobj is the thread
// object; pass nil to allocate one implicitly at site. The child begins
// executing (up to its first scheduling point) before Spawn returns, and
// further interleaving is up to the scheduling policy.
func (c *Ctx) Spawn(name string, tobj *object.Obj, site event.Loc, body func(*Ctx)) *Thread {
	c.t.pending = Request{Kind: event.KindSpawn, Name: name, ThreadObj: tobj, Body: body, Loc: site}
	c.t.postPending()
	return c.t.retThread
}

// Join blocks until t terminates.
func (c *Ctx) Join(t *Thread, site event.Loc) {
	c.t.pending = Request{Kind: event.KindJoin, Target: t.id, Loc: site}
	c.t.postPending()
}

// Step executes one ordinary (non-synchronization) statement at site.
func (c *Ctx) Step(site event.Loc) {
	c.t.pending = Request{Kind: event.KindStep, Loc: site}
	c.t.postPending()
}

// Work executes n ordinary statements at site; it models the paper's
// "long running methods" that skew naive random schedules away from the
// deadlock window.
//
// The n steps are posted as one batched request: the thread parks once
// and the scheduler accounts each grant locally, resuming the thread
// only on the last one (see applyRequest). Every grant is still a full
// scheduling decision, so the schedule is byte-identical to n separate
// Steps.
func (c *Ctx) Work(n int, site event.Loc) {
	if n <= 0 {
		return
	}
	c.t.pending = Request{Kind: event.KindStep, Loc: site, Steps: n}
	c.t.postPending()
}

// NewLatch allocates a fresh latch at site.
func (c *Ctx) NewLatch(site event.Loc) *Latch {
	return c.LatchOf(c.New("Latch", site))
}

// Await blocks until l has been signaled.
func (c *Ctx) Await(l *Latch, site event.Loc) {
	c.t.pending = Request{Kind: event.KindAwait, Obj: l.obj, Loc: site}
	c.t.postPending()
}

// Signal sets l, waking every thread awaiting it. Signaling an already
// set latch is a no-op.
func (c *Ctx) Signal(l *Latch, site event.Loc) {
	c.t.pending = Request{Kind: event.KindSignal, Obj: l.obj, Loc: site}
	c.t.postPending()
}

// Wait is Java's Object.wait: the caller must hold o's monitor; the
// monitor is released in full, the thread blocks until another thread
// calls Notify/NotifyAll on o, and the monitor is re-acquired (at its
// previous re-entrancy depth) before Wait returns. The re-acquisition
// is an ordinary lock wait and can participate in deadlocks.
func (c *Ctx) Wait(o *object.Obj, site event.Loc) {
	c.t.pending = Request{Kind: event.KindWait, Obj: o, Loc: site}
	c.t.postPending()
	c.t.pending = Request{Kind: event.KindAcquire, Obj: o, Loc: site, WaitResume: true}
	c.t.postPending()
}

// Notify wakes one thread waiting on o's monitor (the scheduler picks
// which from the seed and the run so far, mirroring the JVM's arbitrary
// choice; see Scheduler.wake). The caller must hold the monitor. No-op
// if nobody waits.
func (c *Ctx) Notify(o *object.Obj, site event.Loc) {
	c.t.pending = Request{Kind: event.KindNotify, Obj: o, Loc: site}
	c.t.postPending()
}

// NotifyAll wakes every thread waiting on o's monitor.
func (c *Ctx) NotifyAll(o *object.Obj, site event.Loc) {
	c.t.pending = Request{Kind: event.KindNotify, Obj: o, Loc: site, All: true}
	c.t.postPending()
}

// NewChan allocates a channel with the given capacity at site
// (capacity 0 = unbuffered rendezvous, like Go). Negative capacities
// are clamped to 0.
func (c *Ctx) NewChan(capacity int, site event.Loc) *Chan {
	return ChanOf(c.New("Chan", site), capacity)
}

// Send sends v on ch at site, blocking until a receiver rendezvous
// (unbuffered) or buffer space exists. Sending on a closed channel
// aborts the run with a MisuseError, like Go's panic.
func (c *Ctx) Send(ch *Chan, v any, site event.Loc) {
	c.t.pending = Request{Kind: event.KindChanSend, Ch: ch, Val: v, Loc: site}
	c.t.postPending()
}

// Recv receives from ch at site, blocking until a sender, a buffered
// value, or a close provides one. Receiving from a closed, drained
// channel returns nil (Go's zero value).
func (c *Ctx) Recv(ch *Chan, site event.Loc) any {
	c.t.pending = Request{Kind: event.KindChanRecv, Ch: ch, Loc: site}
	c.t.postPending()
	return c.t.retVal
}

// Close closes ch at site, enabling every blocked and future receiver.
// Closing a closed channel aborts the run with a MisuseError.
func (c *Ctx) Close(ch *Chan, site event.Loc) {
	c.t.pending = Request{Kind: event.KindChanClose, Ch: ch, Loc: site}
	c.t.postPending()
}

// NewWaitGroup allocates a WaitGroup (counter 0) at site.
func (c *Ctx) NewWaitGroup(site event.Loc) *WaitGroup {
	return WaitGroupOf(c.New("WaitGroup", site))
}

// WGAdd adjusts wg's counter by delta at site. Driving the counter
// negative aborts the run with a MisuseError, like sync.WaitGroup.
func (c *Ctx) WGAdd(wg *WaitGroup, delta int, site event.Loc) {
	c.t.pending = Request{Kind: event.KindWGAdd, WG: wg, Delta: delta, Loc: site}
	c.t.postPending()
}

// WGDone decrements wg's counter by one at site.
func (c *Ctx) WGDone(wg *WaitGroup, site event.Loc) {
	c.WGAdd(wg, -1, site)
}

// WGWait blocks at site until wg's counter is zero.
func (c *Ctx) WGWait(wg *WaitGroup, site event.Loc) {
	c.t.pending = Request{Kind: event.KindWGWait, WG: wg, Loc: site}
	c.t.postPending()
}
