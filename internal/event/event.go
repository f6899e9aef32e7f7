// Package event defines the dynamic-statement vocabulary shared by every
// analysis in this module: statement labels ("locations"), the kinds of
// dynamic statements the paper's algorithms observe (Acquire, Release,
// Call, Return, New, ...), and the event records emitted by the scheduler
// to its observers.
//
// The model follows Section 2.1 of the DeadlockFuzzer paper: a concurrent
// system is a finite set of threads, each executing a sequence of labeled
// statements; the analyses only ever see this event stream.
package event

import (
	"fmt"
	"strings"
)

// Loc is a statement label: a stable, human-readable identifier for a
// program location, such as "SocketClientFactory.killClients:867" or
// "fig1.clf:16". Locations identify the same statement across executions,
// which is what makes contexts and abstractions comparable between
// Phase I and Phase II.
type Loc string

// NoLoc is the zero location, used for synthetic events with no source
// position (e.g. the implicit return at thread exit).
const NoLoc Loc = ""

// Kind enumerates the dynamic statement kinds observed by the analyses.
type Kind int

// The observable statement kinds. Spawn, Join and Step are extensions the
// scheduler needs for thread lifecycle and timing skew; the paper's
// algorithms only inspect Acquire, Release, Call, Return and New.
const (
	KindAcquire   Kind = iota // c: Acquire(l)
	KindRelease               // c: Release(l)
	KindCall                  // c: Call(m)
	KindReturn                // c: Return(m)
	KindNew                   // c: o = new(o', T)
	KindSpawn                 // thread creation (start of a new thread)
	KindJoin                  // wait for another thread to terminate
	KindStep                  // any other statement (a scheduling point)
	KindYield                 // an explicit yield inserted by the fuzzer
	KindAwait                 // block until a latch is signaled
	KindSignal                // signal a latch
	KindExit                  // thread termination (synthetic)
	KindWait                  // monitor wait: release the monitor, block for a notify
	KindNotify                // monitor notify: wake one/all waiters
	KindChanSend              // channel send: block until a receiver or buffer space
	KindChanRecv              // channel receive: block until a sender, a buffered value, or close
	KindChanClose             // channel close: wake all blocked receivers
	KindWGAdd                 // WaitGroup counter adjustment (add/done)
	KindWGWait                // block until a WaitGroup counter reaches zero
)

var kindNames = [...]string{
	KindAcquire:   "Acquire",
	KindRelease:   "Release",
	KindCall:      "Call",
	KindReturn:    "Return",
	KindNew:       "New",
	KindSpawn:     "Spawn",
	KindJoin:      "Join",
	KindStep:      "Step",
	KindYield:     "Yield",
	KindAwait:     "Await",
	KindSignal:    "Signal",
	KindExit:      "Exit",
	KindWait:      "Wait",
	KindNotify:    "Notify",
	KindChanSend:  "ChanSend",
	KindChanRecv:  "ChanRecv",
	KindChanClose: "ChanClose",
	KindWGAdd:     "WGAdd",
	KindWGWait:    "WGWait",
}

// NumKinds is the number of statement kinds, for tables indexed by Kind
// (e.g. per-kind event counters).
const NumKinds = len(kindNames)

// String returns the statement-kind name used in traces and test output.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// TID identifies a simulated thread within one execution. Like the
// paper's "unique id", it is not stable across executions; cross-run
// identification goes through object abstractions instead.
type TID int

// NoThread is the TID of no thread (e.g. the holder of a free lock).
const NoThread TID = -1

// String formats a TID as "t3" to match the paper's notation.
func (t TID) String() string {
	if t == NoThread {
		return "t?"
	}
	return fmt.Sprintf("t%d", int(t))
}

// Event is a flat, self-contained form of one observed dynamic
// statement, suitable for serialization and for tools that work on
// event logs. (Scheduler observers receive the richer sched.Ev, which
// carries object pointers; this type carries only ids.)
type Event struct {
	Kind   Kind
	Thread TID
	Loc    Loc
	// Lock is the object id of the lock for Acquire/Release, the
	// created object for New, the spawned/joined thread's object for
	// Spawn/Join, the channel for ChanSend/ChanRecv/ChanClose, and the
	// WaitGroup for WGAdd/WGWait. Zero otherwise.
	Lock uint64
	// Method is the callee name for Call/Return events.
	Method string
	// Seq is the global sequence number of the event in this execution.
	Seq uint64
}

// String renders the event compactly for traces: "#12 t1 Acquire(o3)@f.go:5".
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s", e.Seq, e.Thread, e.Kind)
	switch e.Kind {
	case KindAcquire, KindRelease, KindNew, KindSpawn, KindJoin,
		KindChanSend, KindChanRecv, KindChanClose, KindWGAdd, KindWGWait:
		fmt.Fprintf(&b, "(o%d)", e.Lock)
	case KindCall, KindReturn:
		fmt.Fprintf(&b, "(%s)", e.Method)
	}
	if e.Loc != NoLoc {
		fmt.Fprintf(&b, "@%s", e.Loc)
	}
	return b.String()
}

// Context is a sequence of acquire-site labels: the paper's C component of
// a lock dependency (the labels of the Acquire statements a thread
// executed to reach its current lock set, innermost last).
type Context []Loc

// Clone returns an independent copy of the context.
func (c Context) Clone() Context {
	if c == nil {
		return nil
	}
	out := make(Context, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two contexts are the same label sequence.
func (c Context) Equal(d Context) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Key returns a map-key form of the context: the labels joined by "|",
// built in a single allocation.
func (c Context) Key() string {
	size := 0
	for _, l := range c {
		size += len(l) + 1
	}
	var b strings.Builder
	b.Grow(size)
	for i, l := range c {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(string(l))
	}
	return b.String()
}

// AppendKey appends Key()'s bytes to buf, for callers that render keys
// into reused buffers.
func (c Context) AppendKey(buf []byte) []byte {
	for i, l := range c {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = append(buf, l...)
	}
	return buf
}

// String renders the context like the paper: "[15, 16]".
func (c Context) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = string(l)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
