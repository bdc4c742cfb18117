package mapper

import (
	"math"
	"math/rand"
	"testing"
)

// checkSameStream draws the same mix of Int63, Intn and Shuffle calls
// from math/rand's source, seeded with seed, and from a seedSource
// re-seeded with seed in place, the way a search re-seeds its pooled
// source: the Rand over it is new when used is zero, and otherwise has
// drawn used values of the mix under another seed first. It fails at the
// first call whose result differs. Intn covers both of its paths (n
// below and above 2^31); Shuffle runs its Int31n path, the one the
// sampler takes (the other needs 2^31 elements).
func checkSameStream(t *testing.T, seed int64, used, draws int) {
	t.Helper()
	got := rand.New(new(seedSource))
	if used > 0 {
		got.Seed(^seed)
		drawMix(got, used, make([]int, 9))
	}
	got.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	a, b := make([]int, 9), make([]int, 9)
	for i := 0; i < draws; i++ {
		switch i % 4 {
		case 0:
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
		case 1:
			n := 1 + i%97
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
			}
		case 2:
			n := math.MaxInt32 + 1 + i
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
			}
		default:
			for j := range a {
				a[j], b[j] = j, j
			}
			want.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			got.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("seed %d draw %d: Shuffle %v, math/rand %v", seed, i, b, a)
				}
			}
		}
	}
}

// drawMix draws n values of checkSameStream's mix from r.
func drawMix(r *rand.Rand, n int, buf []int) {
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			r.Int63()
		case 1:
			r.Intn(1 + i%97)
		case 2:
			r.Intn(math.MaxInt32 + 1 + i)
		default:
			r.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
		}
	}
}

// FuzzSeedSourceMatchesMathRand: for any seed, a seedSource's draws are
// math/rand's, past the 607-word wrap of the feedback register, also
// when the source is re-seeded in place after any number of draws.
func FuzzSeedSourceMatchesMathRand(f *testing.F) {
	for i, seed := range []int64{0, 1, -1, math.MaxInt32, -math.MaxInt32,
		math.MinInt64, math.MaxInt64, 89482311, 2 * math.MaxInt32} {
		f.Add(seed, uint16(2000), uint16(i*300))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws, used uint16) {
		checkSameStream(t, seed, int(used)%2001, int(draws)%2001)
	})
}

// TestSeedSourceMatchesMathRand checks a spread of seeds deterministically:
// small ones, ones next to multiples of 2^31 - 1 (where Seed's reduction
// wraps), and pseudo-random ones, each re-seeded in place after 0 to
// 1,200 earlier draws.
func TestSeedSourceMatchesMathRand(t *testing.T) {
	var seeds []int64
	for s := int64(-50); s <= 50; s++ {
		seeds = append(seeds, s, s+math.MaxInt32, s-3*math.MaxInt32)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for i, seed := range seeds {
		checkSameStream(t, seed, i%7*200, 700)
	}
}

var sinkRand *rand.Rand

// BenchmarkSeed measures one search's seeding: a fresh math/rand source
// with its serial Seed, against the in-place re-seed of a pooled
// search state's source from the power table, which allocates nothing.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRand = rand.New(rand.NewSource(int64(i)))
		}
	})
	b.Run("seedSource", func(b *testing.B) {
		st := getState()
		defer st.release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.rng.Seed(int64(i))
		}
	})
}
