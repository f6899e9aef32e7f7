//go:build !race

package fuzzer

const raceEnabled = false
