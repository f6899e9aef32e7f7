package sched

import "dlfuzz/internal/object"

// Machine is a thread body that keeps its own state between scheduling
// points instead of a Go stack: the CLF VM runs its threads as machines.
// The scheduler runs a machine with plain calls on whichever stack takes
// the turn to it, so a grant to it switches no coroutine, and a run that
// ends while it is blocked drops it without resuming it.
//
// A machine reaches a scheduling point by filling in Ctx.Request and
// calling Ctx.Post. When Post reports true the request has been granted
// and the machine goes on; when it reports false the machine saves its
// state and returns from Resume. The scheduler calls Resume again once it
// grants that request, after which the request's result (Created,
// Started, Received) is ready, or calls Drop when the run ends first.
// A machine starts another as a thread by posting a Spawn request whose
// Val is that Machine.
type Machine interface {
	// Resume runs the thread from where it stopped until Post reports
	// false or its body ends, and reports whether the body ended. A body
	// that fails records the failure with Ctx.Fail before it ends.
	Resume(c *Ctx) (ended bool)
	// Drop tells the machine that its run ended with the thread still
	// alive: it is not resumed again.
	Drop()
}

// Become makes m the rest of the calling thread: once the body that
// calls it returns, the scheduler runs the thread as m, starting with a
// Resume. A body calls it before its first scheduling point and returns
// right after. It is how a thread whose body must be a func(*Ctx), such
// as the main thread, hands over to a machine.
func (c *Ctx) Become(m Machine) { c.t.machine = m }

// Request returns the thread's request slot, which a machine fills in
// before it calls Post. It is the live pending request: a machine must
// not change it between a Post and the grant.
func (c *Ctx) Request() *Request { return &c.t.pending }

// Post hands a machine thread's request (see Request) to the scheduler
// and reports whether it has been granted: true means the machine goes
// on at once, with no switch; false means it must save its state and
// return from Resume, to be resumed at the grant or dropped. A thread's
// first post always reports false: the thread has run up to its first
// scheduling point, and its creator takes the turn back.
func (c *Ctx) Post() bool {
	t := c.t
	if !t.posted {
		t.posted = true
		return false
	}
	return t.sched.schedule(t)
}

// Fail records v as the failure of the calling machine's body, like a
// panic escaping a Go body: Run panics with v once the thread's exit has
// been posted.
func (c *Ctx) Fail(v any) { c.t.sched.panicVal = v }

// Created returns the object the thread's last granted New request
// created.
func (c *Ctx) Created() *object.Obj { return c.t.retObj }

// Started returns the thread the thread's last granted Spawn request
// started.
func (c *Ctx) Started() *Thread { return c.t.retThread }

// Received returns the value the thread's last granted ChanRecv request
// received.
func (c *Ctx) Received() any { return c.t.retVal }

// LatchOf returns a latch whose identity object is obj, the object a
// granted New request created: NewLatch is New followed by LatchOf.
func (c *Ctx) LatchOf(obj *object.Obj) *Latch {
	l := &Latch{obj: obj}
	c.t.sched.registerLatch(l)
	return l
}

// ChanOf returns a channel of the given capacity whose identity object
// is obj, the object a granted New request created: NewChan is New
// followed by ChanOf. Negative capacities are clamped to 0.
func ChanOf(obj *object.Obj, capacity int) *Chan {
	return &Chan{obj: obj, capacity: max(capacity, 0)}
}

// WaitGroupOf returns a WaitGroup whose identity object is obj, the
// object a granted New request created: NewWaitGroup is New followed by
// WaitGroupOf.
func WaitGroupOf(obj *object.Obj) *WaitGroup { return &WaitGroup{obj: obj} }

// resume runs machine thread t with a plain call until it stops, and
// posts its Exit when its body has ended.
func (t *Thread) resume() {
	if t.machine.Resume(&t.ctx) {
		t.postExit()
	}
}
