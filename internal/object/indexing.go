package object

import "dlfuzz/internal/event"

// Indexer maintains the per-thread light-weight execution-indexing state
// of Section 2.4.2: a depth d, an indexed CallStack of (label, count)
// pairs, and per-depth Counters that count how many times each labeled
// statement has executed in the current calling context.
//
// The zero value is not ready to use; call NewIndexer.
type Indexer struct {
	stack    []IndexEntry        // c, q pairs; one entry per frame
	counters []map[event.Loc]int // counters[d][c]
}

// NewIndexer returns an indexer at depth 0 with an empty call stack.
func NewIndexer() *Indexer {
	return &Indexer{counters: []map[event.Loc]int{{}}}
}

// depthCounters returns the counter map at the current depth, allocating
// it lazily (frames reuse maps after Return, but Call clears them).
func (x *Indexer) depthCounters() map[event.Loc]int {
	return x.counters[len(x.stack)]
}

// bump increments and returns the counter for label c at the current depth.
func (x *Indexer) bump(c event.Loc) int {
	m := x.depthCounters()
	m[c]++
	return m[c]
}

// Call records `c: Call(m)`: it bumps the call-site counter, pushes the
// (site, count) pair, and opens a fresh counter frame for the callee.
func (x *Indexer) Call(c event.Loc) {
	q := x.bump(c)
	x.stack = append(x.stack, IndexEntry{Loc: c, Count: q})
	if len(x.counters) <= len(x.stack) {
		x.counters = append(x.counters, map[event.Loc]int{})
	} else {
		clear(x.counters[len(x.stack)])
	}
}

// Return records `c: Return(m)`: it pops the innermost frame. Returning
// at depth 0 is a no-op (tolerates the synthetic return at thread exit).
func (x *Indexer) Return() {
	if len(x.stack) == 0 {
		return
	}
	x.stack = x.stack[:len(x.stack)-1]
}

// Snapshot records `c: o = new(...)` and returns the execution index of
// the created object: the allocation entry followed by the enclosing call
// frames, innermost first. The index is carved out of a's index chunks,
// capacity-capped, so it lives as long as the objects a mints.
//
// This matches the paper's formulation (push site and count, take the top
// 2k elements, pop) except that we return the full index and let the
// abstraction truncate to k pairs, so one snapshot serves any k.
func (x *Indexer) Snapshot(c event.Loc, a *Allocator) []IndexEntry {
	q := x.bump(c)
	out := a.entries(len(x.stack) + 1)
	out[0] = IndexEntry{Loc: c, Count: q}
	for i, e := range x.stack {
		out[len(x.stack)-i] = e
	}
	return out
}

// Step records the execution of any other labeled statement so that loop
// iterations advance the index even without calls. (The paper ignores
// branches and loops for lightness; counting plain statements at the
// current depth is equally light and keeps distinct dynamic statements
// distinguishable, which only sharpens the abstraction.)
func (x *Indexer) Step(c event.Loc) {
	x.bump(c)
}

// Depth returns the current call depth (number of open frames).
func (x *Indexer) Depth() int { return len(x.stack) }

// Reset returns the indexer to its initial depth-0 state, keeping the
// allocated frames and counter maps for reuse. (Deeper counter frames
// need no clearing here: Call clears a reused frame before use.)
func (x *Indexer) Reset() {
	x.stack = x.stack[:0]
	clear(x.counters[0])
}
