package sched

// ShellStackCaps returns the lock- and context-stack capacities of the
// thread shells parked on the pool's free list.
func (p *Pool) ShellStackCaps() (locks, ctxs []int) {
	for _, t := range *p.shells {
		locks = append(locks, cap(t.lockStack))
		ctxs = append(ctxs, cap(t.ctxStack))
	}
	return locks, ctxs
}
