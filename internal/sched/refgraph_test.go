package sched

import (
	"slices"

	"dlfuzz/internal/event"
)

// refGraph is the test-only reference the scheduler's wait-for walks are
// held to: the wait-for graph built whole over a state. g[t] is the
// thread t waits for — the holder of the lock t's pending acquire wants,
// when another thread holds it — or NoThread.
type refGraph []event.TID

// refWaitGraph builds the wait-for graph of s's current state.
func (s *Scheduler) refWaitGraph() refGraph {
	g := make(refGraph, len(s.threads))
	for i, t := range s.threads {
		g[i] = event.NoThread
		if t.alive && t.pending.Kind == event.KindAcquire {
			if h := s.Holder(t.pending.Obj); h != t.id {
				g[i] = h
			}
		}
	}
	return g
}

// cycleFrom returns the cycle start's chain runs into, in wait order from
// the first thread on it, or nil when the chain ends at a thread that
// waits for no one.
func (g refGraph) cycleFrom(start event.TID) []event.TID {
	var chain []event.TID
	for cur := start; ; cur = g[cur] {
		if i := slices.Index(chain, cur); i >= 0 {
			return chain[i:]
		}
		if g[cur] == event.NoThread {
			return nil
		}
		chain = append(chain, cur)
	}
}

// cycles returns every cycle in the graph, each rotated to start at its
// smallest TID, in the order walks from ascending start threads discover
// them. A walk is skipped once an earlier walk has visited its start, and
// a walk that runs into an already reported cycle reports nothing, so a
// cycle hanging off a low-TID tail comes before a cycle of lower TIDs.
func (g refGraph) cycles() [][]event.TID {
	visited := make([]bool, len(g))
	var out [][]event.TID
	for t := range g {
		if g[t] == event.NoThread || visited[t] {
			continue
		}
		cyc := g.cycleFrom(event.TID(t))
		for cur := event.TID(t); cur != event.NoThread && !visited[cur]; cur = g[cur] {
			visited[cur] = true
		}
		if cyc == nil || slices.ContainsFunc(out, func(c []event.TID) bool { return slices.Contains(c, cyc[0]) }) {
			continue
		}
		mi := slices.Index(cyc, slices.Min(cyc))
		out = append(out, append(slices.Clone(cyc[mi:]), cyc[:mi]...))
	}
	return out
}
