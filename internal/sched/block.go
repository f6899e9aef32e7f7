package sched

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// BlockKind classifies what a blocked thread is waiting for: every
// blocking operation the scheduler models, beyond the lock waits the
// wait-for chain walk (findDeadlock) covers. The partial-deadlock
// analysis (classifyBlocked) reasons about which of these waits can
// still be satisfied.
type BlockKind int

const (
	// BlockAcquire waits for a monitor held by exactly one other thread.
	BlockAcquire BlockKind = iota
	// BlockJoin waits for exactly one other thread to terminate.
	BlockJoin
	// BlockAwait waits for a latch any running thread could signal.
	BlockAwait
	// BlockNotifyWait is a monitor wait that any running thread could
	// notify.
	BlockNotifyWait
	// BlockChanSend waits for buffer space or a receiver any running
	// thread could provide.
	BlockChanSend
	// BlockChanRecv waits for a value or a close any running thread
	// could provide.
	BlockChanRecv
	// BlockWGWait waits for a WaitGroup counter any running thread
	// could drive to zero.
	BlockWGWait
)

var blockKindNames = [...]string{
	BlockAcquire:    "acquire",
	BlockJoin:       "join",
	BlockAwait:      "await",
	BlockNotifyWait: "wait",
	BlockChanSend:   "send",
	BlockChanRecv:   "recv",
	BlockWGWait:     "wg-wait",
}

// String names the block kind as it appears in reports.
func (k BlockKind) String() string {
	if k < 0 || int(k) >= len(blockKindNames) {
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
	return blockKindNames[k]
}

// SoleUnblocker reports whether waits of this kind can only ever be
// satisfied by one specific thread (the lock holder, the join target).
// Multi-satisfier waits — channel operations, latches, notifies,
// WaitGroups — could be unblocked by *any* thread that is still
// running, so they are only provably stuck when no runner exists or
// every runner is itself stuck.
func (k BlockKind) SoleUnblocker() bool {
	return k == BlockAcquire || k == BlockJoin
}

// Chan is a Go-style channel simulated by the scheduler: sends block
// until a receiver rendezvous (capacity 0) or buffer space exists,
// receives block until a value or a close arrives, and close wakes
// every blocked receiver. Channel state lives on the handle — channels
// are per-run heap objects like locks' owning objects, not scheduler
// tables — so recycling a scheduler shell needs no channel reset.
type Chan struct {
	obj      *object.Obj
	capacity int
	buf      []any // buffered values, FIFO, len <= capacity
	closed   bool
}

// Obj returns the channel's identity object.
func (ch *Chan) Obj() *object.Obj { return ch.obj }

// Cap returns the channel's capacity (0 = unbuffered).
func (ch *Chan) Cap() int { return ch.capacity }

// Len returns the number of buffered values.
func (ch *Chan) Len() int { return len(ch.buf) }

// WaitGroup is a Go-style sync.WaitGroup: Add adjusts a counter, Wait
// blocks until it reaches zero. Like Chan, all state lives on the
// handle.
type WaitGroup struct {
	obj   *object.Obj
	count int
}

// Obj returns the WaitGroup's identity object.
func (wg *WaitGroup) Obj() *object.Obj { return wg.obj }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// MisuseError is the scheduler's report of a runtime misuse of a
// blocking primitive — send on a closed channel, double close, a
// WaitGroup counter driven negative, a monitor wait/notify/release
// without holding the lock. It aborts the run like any
// scheduler error (Run panics with it), but carries a structured
// location so language frontends can convert it into their own runtime
// error type.
type MisuseError struct {
	Loc event.Loc
	Msg string
}

// Error formats the misuse like the scheduler's other errors.
func (e *MisuseError) Error() string {
	return fmt.Sprintf("sched: %s at %s", e.Msg, e.Loc)
}

// pendingReceiver returns the lowest-TID alive thread blocked receiving
// on ch that has not already been handed a rendezvous value, or nil.
// The alive list is sorted ascending, so the scan is deterministic.
func (s *Scheduler) pendingReceiver(ch *Chan) *Thread {
	for _, t := range s.alive {
		if t.pending.Kind == event.KindChanRecv && t.pending.Ch == ch && !t.recvReady {
			return t
		}
	}
	return nil
}

// BlockedThread describes one permanently blocked thread in a
// BlockedInfo: who is stuck, on what kind of operation, on which
// object, and at which statement.
type BlockedThread struct {
	Thread    event.TID
	ThreadObj *object.Obj
	Name      string
	Kind      BlockKind
	// Obj is the object the wait targets: the lock, channel, WaitGroup
	// or latch, or the joined thread's object. May be nil for synthetic
	// waits.
	Obj *object.Obj
	Loc event.Loc
}

// String renders one blocked thread like "t2(client-1) recv(o4)@x.clf:9".
func (b BlockedThread) String() string {
	return fmt.Sprintf("%s(%s) %s(%s)@%s", b.Thread, b.Name, b.Kind, b.Obj, b.Loc)
}

// BlockedInfo is the scheduler's verdict on a run that left threads
// blocked forever: the stuck threads (ascending TID), whether the
// deadlock is partial — other threads ran to completion, or are still
// runnable at the step limit, while these can never proceed — or total
// (every remaining thread is stuck). Lock-cycle deadlocks keep their
// own DeadlockInfo report; BlockedInfo covers the blocking-op classes
// the wait-for graph alone cannot see.
type BlockedInfo struct {
	Threads []BlockedThread
	Partial bool
	// Step is the scheduler step at which the verdict was reached.
	Step int
}

// String renders the verdict on one line.
func (b *BlockedInfo) String() string {
	var sb strings.Builder
	if b.Partial {
		sb.WriteString("partial deadlock: ")
	} else {
		sb.WriteString("total deadlock: ")
	}
	for i, t := range b.Threads {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	return sb.String()
}

// Key returns a canonical, execution-independent form of the verdict:
// the sorted multiset of per-thread "name kind(Type@site)@loc" waits,
// prefixed by the partial/total class. Thread ids and object ids are
// deliberately excluded — they are not stable across seeds — so equal
// keys across runs mean the same deadlock, which is what lets campaign
// aggregation count distinct verdicts. A BlockedKeyBuilder renders the
// same bytes without allocating.
func (b *BlockedInfo) Key() string {
	var kb BlockedKeyBuilder
	return string(kb.Key(b))
}

// BlockedKeyBuilder renders BlockedInfo keys into reusable buffers:
// every thread's wait is appended to buf back to back (ends holds the
// boundaries), parts holds the per-wait views for sorting, and key the
// joined result. A campaign that looks a key up with a map[string]
// no-copy conversion allocates only for a key it has not seen. A zero
// BlockedKeyBuilder is ready to use.
type BlockedKeyBuilder struct {
	buf   []byte
	ends  []int
	parts [][]byte
	key   []byte
}

// Key renders b.Key() and returns its bytes, valid until the next call.
func (kb *BlockedKeyBuilder) Key(b *BlockedInfo) []byte {
	kb.buf, kb.ends = kb.buf[:0], kb.ends[:0]
	for _, t := range b.Threads {
		kb.buf = append(kb.buf, t.Name...)
		kb.buf = append(kb.buf, ' ')
		kb.buf = append(kb.buf, t.Kind.String()...)
		kb.buf = append(kb.buf, '(')
		if t.Obj != nil {
			kb.buf = append(kb.buf, t.Obj.Type...)
			kb.buf = append(kb.buf, '@')
			kb.buf = append(kb.buf, t.Obj.Site...)
		} else {
			kb.buf = append(kb.buf, '?')
		}
		kb.buf = append(kb.buf, ")@"...)
		kb.buf = append(kb.buf, t.Loc...)
		kb.ends = append(kb.ends, len(kb.buf))
	}
	kb.parts = kb.parts[:0]
	start := 0
	for _, end := range kb.ends {
		kb.parts = append(kb.parts, kb.buf[start:end])
		start = end
	}
	slices.SortFunc(kb.parts, bytes.Compare)
	if b.Partial {
		kb.key = append(kb.key[:0], "partial:"...)
	} else {
		kb.key = append(kb.key[:0], "total:"...)
	}
	for i, p := range kb.parts {
		if i > 0 {
			kb.key = append(kb.key, '+')
		}
		kb.key = append(kb.key, p...)
	}
	return kb.key
}

// waiter is one candidate of the partial-deadlock analysis: a blocked
// thread, what it waits on and, for a sole-unblocker wait, the one
// thread that can release it (event.NoThread otherwise). freed marks a
// candidate the analysis has discharged.
type waiter struct {
	t     *Thread
	obj   *object.Obj
	kind  BlockKind
	on    event.TID
	freed bool
}

// blockedOn classifies an alive, non-enabled thread's pending request:
// the wait kind, the object the wait targets and the sole unblocker.
// ok is false for requests that are not blocking waits (e.g. a posted
// Exit).
func (s *Scheduler) blockedOn(t *Thread) (w waiter, ok bool) {
	r := &t.pending
	w = waiter{t: t, obj: r.Obj, on: event.NoThread}
	switch r.Kind {
	case event.KindAcquire:
		if r.WaitResume && !t.notified {
			w.kind = BlockNotifyWait
			return w, true
		}
		w.kind = BlockAcquire
		if ls := s.lookupLock(r.Obj.ID); ls != nil {
			w.on = ls.holder
		}
	case event.KindJoin:
		w.kind, w.on, w.obj = BlockJoin, r.Target, s.threads[r.Target].obj
	case event.KindAwait:
		w.kind = BlockAwait
	case event.KindChanSend:
		w.kind, w.obj = BlockChanSend, r.Ch.obj
	case event.KindChanRecv:
		w.kind, w.obj = BlockChanRecv, r.Ch.obj
	case event.KindWGWait:
		w.kind, w.obj = BlockWGWait, r.WG.obj
	default:
		return waiter{}, false
	}
	return w, true
}

// classifyBlocked runs the partial-deadlock analysis over the current
// state: every alive thread not in enabled is a blocked candidate,
// runners is the number of enabled threads (zero in a stalled state).
// It returns nil when no thread is provably stuck forever — in
// particular for every mutex-only program, whose lock cycles are caught
// earlier by the wait-for chain walk.
func (s *Scheduler) classifyBlocked(runners int) *BlockedInfo {
	ws := s.waiters[:0]
	for _, t := range s.alive {
		if s.executable(t) {
			continue
		}
		if w, ok := s.blockedOn(t); ok {
			ws = append(ws, w)
		}
	}
	var info *BlockedInfo
	if stuck := forever(ws, runners); len(stuck) > 0 {
		info = s.blockedInfo(stuck)
	}
	clear(ws)
	s.waiters = ws[:0]
	return info
}

// blockedInfo builds the verdict on the stuck candidates. The verdict
// outlives the run, so it names copies of the objects (see detacher).
func (s *Scheduler) blockedInfo(stuck []waiter) *BlockedInfo {
	d := &s.detach
	for _, w := range stuck {
		d.add(w.t.obj)
		d.add(w.obj)
	}
	d.copy()
	info := &BlockedInfo{Step: s.steps, Threads: make([]BlockedThread, len(stuck))}
	for i, w := range stuck {
		info.Threads[i] = BlockedThread{
			Thread: w.t.id, ThreadObj: d.of(w.t.obj), Name: w.t.name,
			Kind: w.kind, Obj: d.of(w.obj), Loc: w.t.pending.Loc,
		}
	}
	d.done()
	// Partial iff some thread escaped: it already exited, it is still
	// runnable (step limit), or it is blocked but not provably stuck.
	info.Partial = len(info.Threads) < len(s.threads)
	return info
}

// forever returns the candidates that can never be unblocked, given
// how many non-blocked runnable threads exist: the partial-deadlock
// test. A nonempty result with runners > 0 (or with some threads
// already exited) is a partial deadlock.
//
// The analysis is a greatest fixpoint, dual to the lock-only cycle
// search: start by assuming every candidate is stuck forever, then
// discharge any candidate whose wait could still be satisfied — a
// multi-satisfier wait while runners exist (some runner might send,
// close, signal or Done), or a sole-unblocker wait whose unblocker is
// not itself stuck (it runs, or was discharged) — and repeat until
// nothing changes. With runners == 0 (a stalled state) every candidate
// is trivially stuck; with runners > 0 only sole-unblocker chains and
// cycles that never reach a live thread survive, so the result is
// sound: it never flags a thread a future schedule could release.
//
// The result keeps the input's order. It reuses ws's backing array, so
// ws is not valid afterwards.
func forever(ws []waiter, runners int) []waiter {
	for changed := true; changed; {
		changed = false
		for i := range ws {
			w := &ws[i]
			if w.freed {
				continue
			}
			if w.kind.SoleUnblocker() {
				w.freed = !stuckIn(ws, w.on)
			} else {
				w.freed = runners > 0
			}
			changed = changed || w.freed
		}
	}
	stuck := ws[:0]
	for _, w := range ws {
		if !w.freed {
			stuck = append(stuck, w)
		}
	}
	return stuck
}

// stuckIn reports whether thread t is a candidate not yet discharged.
func stuckIn(ws []waiter, t event.TID) bool {
	for _, w := range ws {
		if w.t.id == t {
			return !w.freed
		}
	}
	return false
}
