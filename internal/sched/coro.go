//go:build go1.24

package sched

import (
	"iter"
	"runtime"
)

// This file holds the package's two calls newer than go.mod's Go
// version: iter.Pull (Go 1.23) and runtime.AddCleanup (Go 1.24).
// coro_old.go makes older toolchains fail with an error that names the
// requirement.

// startCoro creates t's coroutine. It starts running loop at the first
// resume.
func (t *Thread) startCoro() {
	t.next, t.stop = iter.Pull(t.loop)
}

// newShell returns a brand-new scheduler shell. The cleanup must not
// reference s (it would never run). Every thread shell is on the parked
// list once its run is recycled, its coroutine (if it ran a Go body)
// parked between bodies, so stopping the list ends every coroutine of a
// shell the warm set has dropped.
func newShell() *Scheduler {
	s := &Scheduler{parked: new([]*Thread)}
	runtime.AddCleanup(s, func(parked *[]*Thread) {
		for _, t := range *parked {
			if t.stop != nil {
				t.stop()
			}
		}
	}, s.parked)
	return s
}
