package sched

import "runtime"

// Pool recycles Scheduler and Thread shells across the seeded runs of a
// campaign worker, so a 100-run campaign allocates scheduler state once
// per worker instead of once per seed. Recycled shells are reset to the
// exact observable state of fresh ones — re-seeded RNG stream, zeroed
// counters, cleared (capacity-retaining) maps and stacks — so pooled
// results and event streams are byte-identical to New(opts).Run(main).
//
// Pooled thread shells also keep their goroutine: it parks on the
// shell's work channel between runs (see Thread.loop), so re-spawning a
// recycled thread skips goroutine creation and keeps its grown stack.
// The goroutines watch stop, which a runtime cleanup closes once the
// pool itself becomes unreachable, so abandoned pools leak nothing.
//
// A Pool is not safe for concurrent use; give each worker goroutine its
// own.
type Pool struct {
	scheds  []*Scheduler
	threads []*Thread
	stop    chan struct{}
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{stop: make(chan struct{})}
	// The cleanup must not reference p (it would never run); closing the
	// channel is all the parked thread goroutines need.
	runtime.AddCleanup(p, func(stop chan struct{}) { close(stop) }, p.stop)
	return p
}

// Run executes main under a pooled scheduler and recycles the shell. If
// main (or the policy) panics, the panic propagates after the shell is
// recycled: Scheduler.Run has torn every thread down by then, and an
// abandoned shell would keep the pool reachable from its own parked
// goroutines, so the pool's cleanup could never stop them.
func (p *Pool) Run(opts Options, main func(*Ctx)) *Result {
	s := p.Get(opts)
	defer p.Put(s)
	return s.Run(main)
}

// Get returns a scheduler (recycled or fresh) configured by opts and
// bound to the pool for thread-shell reuse. Use Get/Put directly when
// the scheduler must stay inspectable after Run; otherwise use Pool.Run.
func (p *Pool) Get(opts Options) *Scheduler {
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

// Put recycles a scheduler whose Run has returned. The shell keeps its
// RNG, scratch buffers, map buckets and lock-state free list; everything
// observable is reset.
func (p *Pool) Put(s *Scheduler) {
	for i, t := range s.threads {
		t.recycle()
		p.threads = append(p.threads, t)
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
	n := len(p.threads)
	if n == 0 {
		return nil
	}
	t := p.threads[n-1]
	p.threads[n-1] = nil
	p.threads = p.threads[:n-1]
	return t
}
