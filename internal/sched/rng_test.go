package sched

import (
	"math"
	"math/rand"
	"testing"
)

// TestFastSourceMatchesStdlib pins fastSource's hard contract: for any
// seed, its output sequence is bit-identical to rand.NewSource(seed) —
// through the raw Source64 interface and through every *rand.Rand
// derivation the scheduler's policies use.
func TestFastSourceMatchesStdlib(t *testing.T) {
	for _, seed := range rngTestSeeds {
		want := rand.New(rand.NewSource(seed))
		src := &fastSource{}
		src.Seed(seed)
		got := rand.New(src)
		for i := 0; i < 2000; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: Int63 %d != stdlib %d", seed, i, g, w)
			}
		}
		for i := 0; i < 500; i++ {
			if w, g := want.Intn(7), got.Intn(7); w != g {
				t.Fatalf("seed %d draw %d: Intn %d != stdlib %d", seed, i, g, w)
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 %d != stdlib %d", seed, i, g, w)
			}
		}
	}
}

// rngTestSeeds covers the seed mapping's special cases: zero and its
// substitute, negatives, and multiples of 2³¹−1 (which map to zero).
var rngTestSeeds = []int64{
	0, 1, -1, 2, 7, 42, 12345, -12345,
	89482311, // the zero-seed substitute
	rngM31 - 1, rngM31, rngM31 + 1, -rngM31, -rngM31 - 1,
	2 * rngM31, -3 * rngM31, 1000 * rngM31,
	1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64,
}

// rngEdgeCounts are draw counts at and around every lazy-fill chunk
// edge, the tap distance, the initial feed index and the register
// length, where a source's register is only partly filled.
func rngEdgeCounts() []int {
	counts := []int{0, 1, 2}
	for m := 1; m <= rngChunks; m++ {
		counts = append(counts, m*rngChunk-1, m*rngChunk, m*rngChunk+1)
	}
	for _, n := range []int{rngTap, rngFeed0, rngLen, rngLen + 1} {
		counts = append(counts, n-1, n, n+1)
	}
	return counts
}

// TestFastSourceReseed pins the pooled-scheduler path: re-seeding a used
// source restores the exact fresh-source stream, whatever number of
// draws — and so whatever partial register fill — the previous seed
// left behind.
func TestFastSourceReseed(t *testing.T) {
	src := &fastSource{}
	for i, prev := range rngTestSeeds {
		next := rngTestSeeds[(i+1)%len(rngTestSeeds)]
		for _, n := range rngEdgeCounts() {
			src.Seed(prev)
			want := rand.NewSource(prev).(rand.Source64)
			for d := 0; d < n; d++ {
				if w, g := want.Uint64(), src.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: %d != stdlib %d", prev, d, g, w)
				}
			}
			src.Seed(next)
			want = rand.NewSource(next).(rand.Source64)
			for d := 0; d < 2*rngLen; d++ {
				if w, g := want.Uint64(), src.Uint64(); w != g {
					t.Fatalf("seed %d after %d draws of seed %d, draw %d: %d != stdlib %d",
						next, n, prev, d, g, w)
				}
			}
		}
	}
}

// The Draw64 pair prices a typical short execution's RNG use: one Seed
// and 64 draws, which the lazy fill serves from two chunks of each of
// the register's ranges. Seed alone is O(1) and measures nothing.
func BenchmarkSeedDraw64Stdlib(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		for d := 0; d < 64; d++ {
			r.Int63()
		}
	}
}

func BenchmarkSeedDraw64Fast(b *testing.B) {
	src := &fastSource{}
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		for d := 0; d < 64; d++ {
			src.Int63()
		}
	}
}
