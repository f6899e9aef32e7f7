package sched

import (
	"slices"

	"dlfuzz/internal/event"
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

// WaitCycles returns copies of the cycle the chain walk finds from
// thread tid's wait edge and of the one the wait-for graph finds, nil
// for none.
func (s *Scheduler) WaitCycles(tid event.TID) (walk, graph []event.TID) {
	walk = slices.Clone(s.waitChain(s.threads[tid]))
	graph = slices.Clone(s.buildWaitGraph().CycleFrom(tid))
	return walk, graph
}
