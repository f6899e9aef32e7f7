package sched

// Pool recycles Scheduler and Thread shells across the seeded runs of a
// campaign worker, so a 100-run campaign allocates scheduler state once
// per worker instead of once per seed. Recycled shells are reset to the
// exact observable state of fresh ones — re-seeded RNG stream, zeroed
// counters, cleared (capacity-retaining) maps and stacks — so pooled
// results and event streams are byte-identical to New(opts).Run(main).
//
// Pooled thread shells also keep their coroutine: it parks between
// bodies (see Thread.loop), so re-spawning a recycled thread skips
// creating one and keeps its grown stack. A runtime cleanup stops the
// parked coroutines once the pool itself becomes unreachable (see
// NewPool), so abandoned pools leak nothing.
//
// A Pool is not safe for concurrent use; give each worker goroutine its
// own.
type Pool struct {
	scheds []*Scheduler
	// shells is the thread-shell free list. It lives apart from the
	// Pool so that the cleanup stopping its coroutines does not keep the
	// pool reachable.
	shells *[]*Thread
}

// Run executes main under a pooled scheduler and recycles the shell. If
// main (or the policy) panics, the panic propagates after the shell is
// recycled: Scheduler.Run has torn every thread down by then, and the
// pool's cleanup stops only the shells on its free list.
func (p *Pool) Run(opts Options, main func(*Ctx)) *Result {
	s := p.get(opts)
	defer p.put(s)
	return s.Run(main)
}

// get returns a scheduler (recycled or fresh) configured by opts and
// bound to the pool for thread-shell reuse.
func (p *Pool) get(opts Options) *Scheduler {
	var s *Scheduler
	if n := len(p.scheds); n > 0 {
		s = p.scheds[n-1]
		p.scheds[n-1] = nil
		p.scheds = p.scheds[:n-1]
	} else {
		s = &Scheduler{}
	}
	s.pool = p
	s.init(opts)
	return s
}

// put recycles a scheduler whose Run has returned. The shell keeps its
// RNG, scratch buffers, map buckets and lock-state free list; everything
// observable is reset.
func (p *Pool) put(s *Scheduler) {
	for i, t := range s.threads {
		t.recycle()
		*p.shells = append(*p.shells, t)
		s.threads[i] = nil
	}
	s.threads = s.threads[:0]
	for i := range s.alive {
		s.alive[i] = nil
	}
	s.alive = s.alive[:0]
	s.enabledValid = false
	for i, ls := range s.locks {
		if ls == nil {
			continue
		}
		ls.recycle()
		s.freeLocks = append(s.freeLocks, ls)
		s.locks[i] = nil
	}
	s.locks = s.locks[:0]
	clear(s.latches)
	s.alloc.Reset()
	s.opts = Options{}
	s.policy = nil
	s.steps = 0
	s.seq = 0
	s.acquires = 0
	s.deadlock = nil
	s.blocked = nil
	s.panicVal = nil
	p.scheds = append(p.scheds, s)
}

// takeThread pops a recycled thread shell, or returns nil when the free
// list is empty.
func (p *Pool) takeThread() *Thread {
	free := *p.shells
	n := len(free)
	if n == 0 {
		return nil
	}
	t := free[n-1]
	free[n-1] = nil
	*p.shells = free[:n-1]
	return t
}
