// Package waitgraph implements wait-for-graph cycle detection, the
// confirmation step behind the paper's checkRealDeadlock (Algorithm 4).
//
// In a lock-based system each blocked thread waits for exactly one lock,
// and each held lock has exactly one holder, so the wait-for relation is
// a functional graph over threads: t -> holder(want(t)). A resource
// deadlock is exactly a cycle in this graph.
//
// The scheduler builds the graph when a run stalls, to find any cycle
// in the stuck state. The check Algorithm 4 runs the moment a thread
// starts waiting needs only that thread's chain, so the scheduler walks
// it directly (the walk CycleFrom makes) rather than building a Graph.
// The representation is a dense slice indexed by TID rather than a map,
// and a Graph is reusable via Reset: steady-state construction and
// cycle detection allocate nothing.
package waitgraph

import "dlfuzz/internal/event"

// Graph is a wait-for graph. Use New to create one and Reset to reuse it
// across states; both construction and CycleFrom are allocation-free at
// steady state.
type Graph struct {
	next []event.TID // next[t] = holder t waits for; NoThread = not waiting
	n    int         // number of waiting threads
	// chain is CycleFrom's scratch walk buffer, reused across calls.
	chain []event.TID
}

// New returns an empty wait-for graph.
func New() *Graph {
	return &Graph{}
}

// Reset empties the graph, keeping its capacity for reuse. Slices
// previously returned by CycleFrom are invalidated.
func (g *Graph) Reset() {
	for i := range g.next {
		g.next[i] = event.NoThread
	}
	g.n = 0
}

// Wait records that thread t is blocked on a lock held by holder.
// Self-edges are ignored: a thread re-entering its own lock never waits.
func (g *Graph) Wait(t, holder event.TID) {
	if t == holder || t < 0 {
		return
	}
	max := t
	if holder > max {
		max = holder
	}
	for len(g.next) <= int(max) {
		g.next = append(g.next, event.NoThread)
	}
	if g.next[t] == event.NoThread {
		g.n++
	}
	g.next[t] = holder
}

// Len returns the number of waiting threads.
func (g *Graph) Len() int { return g.n }

// edge returns the thread t waits for, or NoThread.
func (g *Graph) edge(t event.TID) event.TID {
	if t < 0 || int(t) >= len(g.next) {
		return event.NoThread
	}
	return g.next[t]
}

// CycleFrom returns the cycle reachable from start, if start's wait chain
// runs into one: the threads in wait order starting at the first thread
// on the cycle, or nil when the chain ends at a running (non-waiting)
// thread. For deadlock checking the cycle is reported the moment the
// closing edge is added.
//
// The returned slice is a shared scratch buffer, valid only until the
// next CycleFrom, Wait or Reset call on g; callers that retain it must
// copy.
func (g *Graph) CycleFrom(start event.TID) []event.TID {
	chain := g.chain[:0]
	cur := start
	for {
		// The walk is at most one lap around a cycle plus its tail, and
		// real cycles are tiny, so a linear membership scan beats a map.
		for i, c := range chain {
			if c == cur {
				g.chain = chain
				return chain[i:]
			}
		}
		nxt := g.edge(cur)
		if nxt == event.NoThread {
			g.chain = chain
			return nil
		}
		chain = append(chain, cur)
		cur = nxt
	}
}

// Cycles returns every cycle in the graph, each starting at its smallest
// TID, in ascending order of that TID. Used by analyses that inspect a
// whole stalled state rather than a single closing edge. The returned
// cycles are freshly allocated copies, safe to retain.
func (g *Graph) Cycles() [][]event.TID {
	visited := make([]bool, len(g.next))
	var cycles [][]event.TID
	for t := range g.next {
		tid := event.TID(t)
		if g.next[t] == event.NoThread || visited[t] {
			continue
		}
		cyc := g.CycleFrom(tid)
		// Mark the whole chain visited so shared tails are not re-walked.
		cur := tid
		for {
			if visited[cur] {
				break
			}
			visited[cur] = true
			nxt := g.edge(cur)
			if nxt == event.NoThread {
				break
			}
			cur = nxt
		}
		if len(cyc) == 0 {
			continue
		}
		// Only report the cycle when this walk discovered it (its
		// members were not already claimed by an earlier cycle).
		if claimedElsewhere(cyc, cycles) {
			continue
		}
		cycles = append(cycles, rotateMin(cyc))
	}
	return cycles
}

// claimedElsewhere reports whether cyc was already reported.
func claimedElsewhere(cyc []event.TID, prior [][]event.TID) bool {
	for _, p := range prior {
		for _, t := range p {
			for _, c := range cyc {
				if t == c {
					return true
				}
			}
		}
	}
	return false
}

// rotateMin returns a fresh copy of the cycle rotated so its smallest
// TID comes first.
func rotateMin(cyc []event.TID) []event.TID {
	mi := 0
	for i, t := range cyc {
		if t < cyc[mi] {
			mi = i
		}
	}
	out := make([]event.TID, 0, len(cyc))
	out = append(out, cyc[mi:]...)
	out = append(out, cyc[:mi]...)
	return out
}
