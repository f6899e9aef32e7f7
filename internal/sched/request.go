package sched

import (
	"fmt"
	"strings"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// Request is the pending operation a simulated thread has posted to the
// scheduler. Every observable statement is a scheduling point: the thread
// blocks until the scheduler grants the request, so exactly one thread
// runs at a time and each execution is a pure function of (program, seed).
type Request struct {
	Kind event.Kind
	// Loc is the label of the statement issuing the request.
	Loc event.Loc
	// Obj is the lock for Acquire/Release, the latch object for
	// Await/Signal, and nil otherwise.
	Obj *object.Obj
	// Method and Recv describe Call requests (Recv is the callee's
	// `this`, used by k-object-sensitivity; may be nil).
	Method string
	Recv   *object.Obj
	// Type is the allocated type name for New requests.
	Type string
	// Target is the joined thread for Join requests.
	Target event.TID
	// Body and Name describe Spawn requests (see also Val).
	Body func(*Ctx)
	Name string
	// ThreadObj optionally carries a pre-allocated thread object for
	// Spawn; when nil the scheduler allocates one at the spawn site.
	ThreadObj *object.Obj
	// WaitResume marks the hidden second half of a monitor Wait: an
	// Acquire that only becomes executable once the thread has been
	// notified, and that restores the saved re-entrancy depth.
	WaitResume bool
	// All marks a Notify as notify-all.
	All bool
	// Ch is the channel for ChanSend/ChanRecv/ChanClose requests. Val
	// is the sent value of a ChanSend, and the body of a Spawn whose
	// body is a Machine instead of a Body. (A field of its own would
	// grow the request every post writes whole.)
	Ch  *Chan
	Val any
	// WG is the WaitGroup for WGAdd/WGWait requests, Delta the counter
	// adjustment (WGAdd only; Done posts -1).
	WG    *WaitGroup
	Delta int
	// Steps is the number of invisible steps this request stands for
	// (Ctx.Work posts one Step request with Steps=n instead of n separate
	// requests). Zero and one both mean a single step. The scheduler
	// grants a batched request Steps times — each grant is a full
	// scheduling decision, consuming the same policy/RNG draws as a
	// per-step execution, though a SoloPolicy takes the forced ones in
	// one call — but only resumes the thread on the last grant,
	// eliminating the per-step handshake on the dominant path.
	Steps int
}

// String renders the request for debugging and deadlock reports.
func (r Request) String() string {
	switch r.Kind {
	case event.KindAcquire, event.KindRelease:
		return fmt.Sprintf("%s(%s)@%s", r.Kind, r.Obj, r.Loc)
	case event.KindCall:
		return fmt.Sprintf("Call(%s)@%s", r.Method, r.Loc)
	case event.KindReturn:
		return fmt.Sprintf("Return(%s)@%s", r.Method, r.Loc)
	case event.KindNew:
		return fmt.Sprintf("New(%s)@%s", r.Type, r.Loc)
	case event.KindSpawn:
		return fmt.Sprintf("Spawn(%s)@%s", r.Name, r.Loc)
	case event.KindJoin:
		return fmt.Sprintf("Join(%s)@%s", r.Target, r.Loc)
	case event.KindChanSend, event.KindChanRecv, event.KindChanClose:
		return fmt.Sprintf("%s(%s)@%s", r.Kind, r.Ch.obj, r.Loc)
	case event.KindWGAdd:
		return fmt.Sprintf("WGAdd(%s, %+d)@%s", r.WG.obj, r.Delta, r.Loc)
	case event.KindWGWait:
		return fmt.Sprintf("WGWait(%s)@%s", r.WG.obj, r.Loc)
	default:
		return fmt.Sprintf("%s@%s", r.Kind, r.Loc)
	}
}

// Outcome classifies how a scheduled execution ended.
type Outcome int

const (
	// Completed means every thread terminated normally.
	Completed Outcome = iota
	// Deadlock means a resource deadlock was confirmed: a cycle in the
	// wait-for graph (the paper's "Real Deadlock Found!").
	Deadlock
	// Stall means no thread is enabled but some are alive and no lock
	// cycle exists: a communication deadlock on latches, channels,
	// WaitGroups or monitor waits. Result.Blocked carries the
	// classified verdict (total vs. partial, and what each thread
	// waits on).
	Stall
	// StepLimit means the execution was cut off by Options.MaxSteps.
	StepLimit
)

var outcomeNames = [...]string{
	Completed: "completed",
	Deadlock:  "deadlock",
	Stall:     "stall",
	StepLimit: "step-limit",
}

// String names the outcome.
func (o Outcome) String() string {
	if o < 0 || int(o) >= len(outcomeNames) {
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// DeadlockEdge is one thread's position in a confirmed deadlock cycle:
// the thread waits for Want while holding Held, having acquired them at
// the sites in Context.
type DeadlockEdge struct {
	Thread    event.TID
	ThreadObj *object.Obj
	Want      *object.Obj
	WantLoc   event.Loc
	Held      []*object.Obj
	Context   event.Context
}

// DeadlockInfo describes a confirmed resource deadlock: the cycle of
// threads, each waiting on a lock held by the next.
type DeadlockInfo struct {
	Edges []DeadlockEdge
	// Step is the scheduler step at which the cycle closed.
	Step int
}

// String renders the cycle in the paper's tuple notation.
func (d *DeadlockInfo) String() string {
	var b strings.Builder
	b.WriteString("real deadlock: ")
	for i, e := range d.Edges {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "(%s wants %s@%s holding %d locks %s)",
			e.Thread, e.Want, e.WantLoc, len(e.Held), e.Context)
	}
	return b.String()
}

// Result summarizes one scheduled execution.
type Result struct {
	Outcome  Outcome
	Deadlock *DeadlockInfo // non-nil iff Outcome == Deadlock
	// Blocked reports threads provably blocked forever on blocking
	// operations (channels, WaitGroups, latches, joins, monitor waits).
	// Non-nil only for Stall outcomes and for StepLimit outcomes where a
	// sole-unblocker chain is already stuck; lock-cycle deadlocks are
	// reported through Deadlock instead. See Scheduler.classifyBlocked.
	Blocked *BlockedInfo
	// Steps is the number of scheduling decisions taken.
	Steps int
	// Events is the number of events emitted to observers.
	Events uint64
	// Acquires is the number of monitor acquisitions executed (first
	// entries only; re-entrant acquires are invisible to the analyses
	// and are not counted).
	Acquires uint64
	// Spawned is the total number of threads created.
	Spawned int
	// Allocated is the total number of objects allocated.
	Allocated uint64
	// CrossGrants counts the grants that handed the turn to a thread
	// other than the one that posted, the main thread's first grant
	// included: each resumes that thread, by a coroutine switch for a Go
	// body and by a call for a Machine.
	CrossGrants int
	// Unwound counts the threads still alive when the run ended, which
	// teardown aborted (Go bodies) or dropped (Machines).
	Unwound int
}
