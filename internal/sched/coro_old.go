//go:build !go1.24

package sched

// Simulated threads run as iter.Pull coroutines and dropped shells are
// stopped by runtime.AddCleanup (see coro.go), so this package needs a
// Go 1.24 toolchain.
var _ = sched_requires_a_Go_1_24_toolchain
