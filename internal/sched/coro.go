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

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{shells: new([]*Thread)}
	// The cleanup must not reference p (it would never run). Every shell
	// is back on the free list once its scheduler is Put, parked between
	// bodies, so stopping the free list ends every coroutine.
	runtime.AddCleanup(p, func(shells *[]*Thread) {
		for _, t := range *shells {
			t.stop()
		}
	}, p.shells)
	return p
}
