package sched

// Per-run RNG seeding is the scheduler's largest fixed cost: math/rand's
// rngSource.Seed runs 1841 sequential Lehmer-LCG steps through Schrage's
// algorithm (~10.5µs), which dominates short executions and caps the
// steps/sec of every campaign that cycles seeds (one Seed per run). This
// file replaces the source behind the shell's *rand.Rand with fastSource,
// a bit-compatible reimplementation of math/rand's additive
// lagged-Fibonacci generator (Mitchell & Reeds) whose seeder runs the
// same LCG as three interleaved jump chains (x[n+3] = A³·x[n] mod M), a
// ~7× faster fill with instruction-level parallelism across the chains.
//
// The fill is also lazy. Most executions draw only a few dozen numbers,
// and draw k first reads register slots 334−k and 607−k, so Seed fills
// nothing: the register is filled in chunks of both ranges as the draws
// reach them, each chunk entering the LCG at its own step through a jump
// multiplier from an init-time table.
//
// Bit-compatibility is a hard requirement — the schedule RNG determines
// every committed golden, witness and bench report — and is pinned by
// TestFastSourceMatchesStdlib plus the repo-wide golden suite. Seeding
// needs the stdlib's unexported rngCooked table; rather than embedding a
// 607-entry copy, init recovers it from math/rand itself by inverting
// 607 observed draws (see recoverCooked).

import "math/rand"

const (
	rngLen  = 607       // feedback register length
	rngTap  = 273       // additive-generator tap distance
	rngMask = 1<<63 - 1 // Int63 truncation mask
	rngM31  = 1<<31 - 1 // Lehmer LCG modulus 2³¹−1 (prime)
	rngA    = 48271     // Lehmer LCG multiplier
)

const (
	// rngFeed0 is the feed index after seeding. Draw k reads feed slot
	// rngFeed0−k and tap slot rngLen−k, so the slots below rngFeed0 are
	// first read by a feed and the rest by a tap, both top down.
	rngFeed0 = rngLen - rngTap
	// rngChunk slots of each range are filled at a time; rngChunks
	// chunks cover the longer, lower range, and the upper range's share
	// of the last chunks is empty.
	rngChunk  = 32
	rngChunks = (rngFeed0 + rngChunk - 1) / rngChunk
)

// rngCooked is math/rand's seeding table, recovered at init.
var rngCooked [rngLen]int64

// Jump multipliers for the seeding LCG, computed at init. rngJump3 is
// A³ mod M; rngChunkJump[m] holds A^(21+3i) mod M for the first slot i
// of chunk m in the lower and the upper range (slot i consumes LCG
// steps 21+3i to 23+3i: 20 warmup steps plus the loop-header step).
var (
	rngJump3     uint64
	rngChunkJump [rngChunks + 1][2]uint64
)

// fastSource implements rand.Source64 with the exact output sequence of
// rand.NewSource(seed) for every seed.
type fastSource struct {
	tap, feed int
	// x is the seed's LCG start; chunks counts the chunks filled so far,
	// and a draw whose tap falls below fillTap needs the next one.
	x       uint64
	chunks  int
	fillTap int
	vec     [rngLen]int64
}

// chunkStarts returns the first slot of chunk m in the lower and the
// upper range; chunk 0 is the empty prefix above both ranges.
func chunkStarts(m int) (lo, hi int) {
	return max(0, rngFeed0-m*rngChunk), max(rngFeed0, rngLen-m*rngChunk)
}

// mulmod31 returns a·b mod 2³¹−1 for a, b < 2³¹, reducing the 62-bit
// product by folding (2³¹ ≡ 1 mod M) twice plus a conditional subtract.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	p = (p >> 31) + (p & rngM31)
	p = (p >> 31) + (p & rngM31)
	if p >= rngM31 {
		p -= rngM31
	}
	return p
}

// seedInit maps an arbitrary int64 seed onto the LCG's starting value,
// exactly as rngSource.Seed does.
func seedInit(seed int64) uint64 {
	seed = seed % rngM31
	if seed < 0 {
		seed += rngM31
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// Seed arms the register to hold, slot by slot as draws reach it, the
// state rngSource.Seed produces: vec[i] = (three consecutive LCG outputs
// packed 40/20/0) XOR rngCooked[i].
func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngFeed0
	s.x = seedInit(seed)
	s.chunks = 0
	s.fillTap = rngLen
}

// grow fills the next chunk of both ranges. After m chunks, draws up to
// m·rngChunk read only filled slots — the draw's tap index is then at
// least rngLen−m·rngChunk — and after the last one every slot is filled.
func (s *fastSource) grow() {
	m := s.chunks + 1
	s.chunks = m
	lo, hi := chunkStarts(m)
	prevLo, prevHi := chunkStarts(m - 1)
	s.fill(lo, prevLo, rngChunkJump[m][0])
	s.fill(hi, prevHi, rngChunkJump[m][1])
	if m == rngChunks {
		s.fillTap = 0
	} else {
		s.fillTap = rngLen - m*rngChunk
	}
}

// fill computes slots [a, b), given jump = A^(21+3a) mod M. Slot i
// consumes LCG steps 21+3i, 22+3i and 23+3i, so three chains each
// advancing by A³ cover the sequence with independent multiply chains.
func (s *fastSource) fill(a, b int, jump uint64) {
	c1 := mulmod31(s.x, jump) // LCG step 21+3i
	c2 := mulmod31(c1, rngA)  // LCG step 22+3i
	c3 := mulmod31(c2, rngA)  // LCG step 23+3i
	for i := a; i < b; i++ {
		s.vec[i] = int64(c1<<40^c2<<20^c3) ^ rngCooked[i]
		c1 = mulmod31(c1, rngJump3)
		c2 = mulmod31(c2, rngJump3)
		c3 = mulmod31(c3, rngJump3)
	}
}

// Uint64 is the additive generator's step, identical to
// rngSource.Uint64.
func (s *fastSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	if s.tap < s.fillTap {
		s.grow()
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// skip advances the generator by n draws, leaving it exactly as n
// Uint64 calls would. The lazy fill is hoisted out of the loop: draw j
// from here reads tap slot tap−j while the first pass runs (a fresh
// register's tap 0 stands for 607), so growing until that slot of the
// n-th draw is filled covers the whole run. Filling early is safe —
// a chunk's slots are not fed before their lazy grow would have filled
// them (see grow).
func (s *fastSource) skip(n int) {
	if s.fillTap > 0 {
		first := s.tap
		if first == 0 {
			first = rngLen
		}
		for s.fillTap > 0 && first-n < s.fillTap {
			s.grow()
		}
	}
	tap, feed := s.tap, s.feed
	for ; n > 0; n-- {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		s.vec[feed] += s.vec[tap]
	}
	s.tap, s.feed = tap, feed
}

// Int63 matches rngSource.Int63.
func (s *fastSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// recoverCooked reconstructs rngCooked from an observable stdlib source.
// After Seed the register holds v[i] = lcg(i) ^ cooked[i] with tap=0,
// feed=334, and draw k returns v[feed(k)] + v[tap(k)] while overwriting
// the feed slot. Slot i is fed (overwritten) at draw 334−i (i ≤ 333) and
// tapped at draw 607−i (i ≥ 273); a feed slot is always original, and a
// tapped slot is original exactly when it was never fed (i ≥ 334) or is
// tapped before its feed — which never happens, so overlapping slots
// 273..333 are tapped post-overwrite, holding a known earlier draw
// result. The system is therefore triangular over the original register:
//
//	v[606−j] = r[334+j] − r[61+j]          j = 0..272   (draws 335..607)
//	v[334−k] = r[k−1]   − v[607−k]         k = 1..273   (tap original)
//	v[334−k] = r[k−1]   − r[k−274]         k = 274..334 (tap = draw k−273)
//
// with all arithmetic wrapping like the generator's int64 addition.
// XORing off the LCG part for the probe seed leaves the cooked table.
func recoverCooked() {
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var r [rngLen]uint64
	for i := range r {
		r[i] = src.Uint64()
	}
	var v [rngLen]uint64
	for j := 0; j <= 272; j++ {
		v[606-j] = r[334+j] - r[61+j]
	}
	for k := 1; k <= 273; k++ {
		v[334-k] = r[k-1] - v[607-k]
	}
	for k := 274; k <= 334; k++ {
		v[334-k] = r[k-1] - r[k-274]
	}
	x := seedInit(probe)
	c := mulmod31(x, powmod31(rngA, 21))
	for i := 0; i < rngLen; i++ {
		u := c << 40
		c = mulmod31(c, rngA)
		u ^= c << 20
		c = mulmod31(c, rngA)
		u ^= c
		rngCooked[i] = int64(v[i] ^ u)
		c = mulmod31(c, rngA)
	}
}

// powmod31 returns a^e mod 2³¹−1.
func powmod31(a uint64, e int) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = mulmod31(r, a)
		}
		a = mulmod31(a, a)
	}
	return r
}

func init() {
	rngJump3 = powmod31(rngA, 3)
	for m := 1; m <= rngChunks; m++ {
		lo, hi := chunkStarts(m)
		rngChunkJump[m] = [2]uint64{powmod31(rngA, 21+3*lo), powmod31(rngA, 21+3*hi)}
	}
	recoverCooked()
}
