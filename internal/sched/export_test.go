package sched

import (
	"fmt"
	"slices"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// Fig1 is the paper's Figure 1 program (see fig1).
func Fig1(work int) func(*Ctx) { return fig1(work) }

// NewShell returns a brand-new scheduler shell, one that has never run.
func NewShell() *Scheduler { return newShell() }

// Rerun configures s by opts and runs main on it without returning the
// shell to the warm set, so a test can run one shell again and again
// and inspect it in between.
func (s *Scheduler) Rerun(opts Options, main func(*Ctx)) *Result {
	s.init(opts)
	return s.execute(main)
}

// ShellStackCaps returns the lock- and context-stack capacities of the
// thread shells s has parked.
func (s *Scheduler) ShellStackCaps() (locks, ctxs []int) {
	for _, t := range *s.parked {
		locks = append(locks, cap(t.lockStack))
		ctxs = append(ctxs, cap(t.ctxStack))
	}
	return locks, ctxs
}

// ShellState is what one thread of a run holds of its thread shell.
type ShellState struct {
	// Coroutine reports whether the shell holds a coroutine.
	Coroutine bool
	// Aborted reports whether teardown resumed the thread to unwind it.
	Aborted bool
}

// ThreadShells returns the shell state of each thread of s's current
// run, in TID order, and the run's Unwound count so far.
func (s *Scheduler) ThreadShells() ([]ShellState, int) {
	var out []ShellState
	for _, t := range s.threads {
		out = append(out, ShellState{Coroutine: t.next != nil, Aborted: t.aborted})
	}
	return out, s.unwound
}

// WaitCycles returns copies of the cycle the chain walk finds from
// thread tid's wait edge and of the one the reference wait-for graph
// finds, nil for none.
func (s *Scheduler) WaitCycles(tid event.TID) (walk, graph []event.TID) {
	walk = slices.Clone(s.waitChain(s.threads[tid]))
	graph = s.refWaitGraph().cycleFrom(tid)
	return walk, graph
}

// StallCycles returns what the stall-time deadlock check reports for s's
// current state and the first cycle the reference wait-for graph finds
// in it, nil for none.
func (s *Scheduler) StallCycles() (*DeadlockInfo, []event.TID) {
	var graph []event.TID
	if cycles := s.refWaitGraph().cycles(); len(cycles) > 0 {
		graph = cycles[0]
	}
	return s.findDeadlock(), graph
}

// StalledOnLocks returns a fresh shell in a stalled lock state built
// directly, without running a program. Thread i is alive and holds lock
// i. With wants[i] >= 0 it is blocked acquiring lock wants[i] (its own
// lock makes that a re-entrant acquire, which never waits); otherwise it
// is blocked awaiting a latch no one signals.
func StalledOnLocks(wants []int) *Scheduler {
	s := newShell()
	s.init(Options{})
	locks := make([]*object.Obj, len(wants))
	for i := range wants {
		locks[i] = s.alloc.New("Object", event.Loc(fmt.Sprintf("lock%d", i)), nil, nil)
	}
	latch := &Latch{obj: s.alloc.New("Latch", "latch", nil, nil)}
	s.registerLatch(latch)
	for i, w := range wants {
		t := &Thread{id: event.TID(i), sched: s, alive: true, posted: true}
		t.obj = s.alloc.New("Thread", event.Loc(fmt.Sprintf("spawn%d", i)), nil, nil)
		ls := s.lock(locks[i])
		ls.holder, ls.depth = t.id, 1
		t.lockStack = []*object.Obj{locks[i]}
		t.ctxStack = event.Context{event.Loc(fmt.Sprintf("sync%d", i))}
		if w >= 0 {
			t.pending = Request{Kind: event.KindAcquire, Obj: locks[w], Loc: event.Loc(fmt.Sprintf("want%d", i))}
		} else {
			t.pending = Request{Kind: event.KindAwait, Obj: latch.obj, Loc: event.Loc(fmt.Sprintf("await%d", i))}
		}
		s.threads = append(s.threads, t)
		s.alive = append(s.alive, t)
	}
	return s
}

// RunThen configures s by opts, runs main on it and calls inspect on the
// state the run ended in, then recycles s without returning it to the
// warm set. inspect runs after teardown has unwound the threads.
// Teardown grants nothing, so every lock keeps its holder and every
// thread left alive stays alive; a thread keeps its pending request
// unless its body posts from a deferred call while aborting, which
// Sync, Call and the CLF VM never do.
func (s *Scheduler) RunThen(opts Options, main func(*Ctx), inspect func()) Outcome {
	s.init(opts)
	defer s.recycle(true)
	s.outcome = Completed
	s.drive(main)
	inspect()
	return s.outcome
}
