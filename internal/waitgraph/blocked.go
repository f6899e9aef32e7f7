// Package waitgraph classifies what blocked threads wait for and
// decides which of them can never be released: the partial-deadlock
// test behind the scheduler's blocking-deadlock verdicts.
//
// Lock cycles need no graph here. In a lock-based system each blocked
// thread waits for exactly one lock and each held lock has exactly one
// holder, so the wait-for relation is functional: t -> holder(want(t)).
// A resource deadlock is a cycle in it, and the scheduler finds one by
// walking a single thread's chain (the paper's checkRealDeadlock,
// Algorithm 4). This package covers the waits that relation cannot
// express — joins, latches, monitor waits, channels and WaitGroups —
// through BlockKind and Forever.
package waitgraph

import (
	"fmt"

	"dlfuzz/internal/event"
)

// BlockKind classifies what a blocked thread is waiting for. It extends
// the lock-only wait-for graph to every blocking operation the
// scheduler models; the partial-deadlock analysis (Forever) reasons
// about which of these waits can still be satisfied.
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

// BlockedOn is one blocked thread's wait: what kind of operation it is
// stuck on and — for sole-unblocker kinds — which thread alone can
// release it. On is event.NoThread for multi-satisfier kinds.
type BlockedOn struct {
	Thread event.TID
	Kind   BlockKind
	On     event.TID
}

// Forever computes the subset of blocked threads that can never be
// unblocked, given how many non-blocked runnable threads exist. It is
// the partial-deadlock test: a nonempty result with runners > 0 (or
// with some threads already exited) is a partial deadlock.
//
// The analysis is a greatest fixpoint, dual to the lock-only cycle
// search: start by assuming every blocked thread is stuck forever, then
// discharge any thread whose wait could still be satisfied — a
// multi-satisfier wait while runners exist (some runner might send,
// close, signal or Done), or a sole-unblocker wait whose unblocker is
// not itself in the stuck set (it runs, or was discharged) — and repeat
// until nothing changes. With runners == 0 (a stalled state) every
// blocked thread is trivially stuck; with runners > 0 only
// sole-unblocker chains and cycles that never reach a live thread
// survive, so the result is sound: it never flags a thread a future
// schedule could release.
//
// The returned TIDs are in the input's order. Forever never retains the
// input slice.
func Forever(blocked []BlockedOn, runners int) []event.TID {
	stuck := make(map[event.TID]bool, len(blocked))
	for _, b := range blocked {
		stuck[b.Thread] = true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range blocked {
			if !stuck[b.Thread] {
				continue
			}
			release := false
			if !b.Kind.SoleUnblocker() {
				release = runners > 0
			} else {
				release = !stuck[b.On]
			}
			if release {
				delete(stuck, b.Thread)
				changed = true
			}
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	out := make([]event.TID, 0, len(stuck))
	for _, b := range blocked {
		if stuck[b.Thread] {
			out = append(out, b.Thread)
		}
	}
	return out
}
