//go:build race

package lang

// raceEnabled reports whether the race detector is on. Its
// instrumentation allocates, and sync.Pool drops puts at random under
// it, so allocation counts mean nothing there.
const raceEnabled = true
