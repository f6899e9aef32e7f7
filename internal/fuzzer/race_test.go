//go:build race

package fuzzer

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops puts at random and every run costs far more memory,
// so allocation bounds loosen and the long single-goroutine
// differentials scale down.
const raceEnabled = true
