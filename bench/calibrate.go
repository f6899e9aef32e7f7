package main

import (
	"slices"
	"time"
)

// The end-to-end timings are reported at a reference host speed. The
// benchmark's host has phases of a minute or more in which checks run
// up to two thirds slower, so a whole run can fall inside one. After
// each pass the benchmark times calibrate, two fixed exercises of the
// Go runtime that share no code with dlfuzz, and divides the run's
// timings by the host's slowdown over the reference host. Over 15-second
// windows of one process, the ping-pong exercise tracked clf-corpus and
// paper-go pass times with a correlation of 0.95 to 0.98, and the
// scaling cut the windows' spread from 4–5% to 1–2%. A change to dlfuzz
// moves the checks and not the calibration, so it shows in full.

// The two exercises and their times on the reference host, an Intel
// Xeon with two vCPUs under go1.24.0, in a quiet phase. On that host a
// reported timing equals the wall time a user saw.
const (
	pingRoundTrips = 5000
	pingRefMs      = 2.4

	sortLen    = 4096
	sortRounds = 8
	sortRefMs  = 2.05
)

// calibration is one timing of both exercises, in ms.
type calibration struct {
	pingMs, sortMs float64
}

// calibrate times both exercises once.
func calibrate() calibration {
	return calibration{pingPong(), sortInts()}
}

// maxPingOverSort caps the ping-pong's slowdown at this many times the
// sort's.
const maxPingOverSort = 1.25

// slowdown is how many times slower than the reference host the
// calibrations cs ran. Each exercise's slowdown is its median time over
// its reference time. The ping-pong's is used, as it tracks the checks
// more closely than the sort's: in slow phases the checks slowed more
// than either, and the ping-pong more than the sort, by up to a fifth.
// But in some processes the ping-pong ran two to four times its
// reference time, at least 1.4 times the sort's slowdown; in two of
// them the sort read its reference time and the checks ran as fast as
// in the quietest runs. So the ping-pong's slowdown is capped at
// maxPingOverSort times the sort's.
func slowdown(cs []calibration) float64 {
	var ping, sort []float64
	for _, c := range cs {
		ping = append(ping, c.pingMs)
		sort = append(sort, c.sortMs)
	}
	return min(median(ping)/pingRefMs, maxPingOverSort*median(sort)/sortRefMs)
}

// pingPong hands a token between two goroutines over unbuffered
// channels pingRoundTrips times, the goroutine switch every
// cross-thread grant makes, and returns the time taken in ms.
func pingPong() float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	t0 := time.Now()
	for range pingRoundTrips {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(t0)
	close(ping)
	<-done
	return float64(d.Nanoseconds()) / 1e6
}

// sortInts sorts a copy of sortLen pseudo-random ints, which fit in a
// core's cache, sortRounds times: compute with no goroutine switch and
// no allocation. It returns the time taken in ms.
func sortInts() float64 {
	src, buf := make([]int, sortLen), make([]int, sortLen)
	x := 12345
	for i := range src {
		x = x*1103515245 + 12345
		src[i] = x & 0xffffff
	}
	t0 := time.Now()
	for range sortRounds {
		copy(buf, src)
		slices.Sort(buf)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
