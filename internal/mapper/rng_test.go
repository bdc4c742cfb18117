package mapper

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSameStream draws the same mix of Int63, Intn and Shuffle calls
// from math/rand's source, seeded with seed, and from a seedSource's
// replicas of them (Int63, Intn and shuffle), re-seeded with seed in
// place, the way a search re-seeds its pooled source: the seedSource is
// new when used is zero, and otherwise has drawn used values of the mix
// under another seed first. It fails at the first call whose result
// differs. Intn covers both of its paths (n below and above 2^31);
// Shuffle runs its int31n path, the one the sampler takes (the other
// needs 2^31 elements).
func checkSameStream(t *testing.T, seed int64, used, draws int) {
	t.Helper()
	var got seedSource
	if used > 0 {
		got.Seed(^seed)
		drawMix(&got, used, make([]int, 9))
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
			shuffle(&got, b)
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d draw %d: Shuffle %v, math/rand %v", seed, i, b, a)
			}
		}
	}
}

// drawMix draws n values of checkSameStream's mix from r's replicas.
func drawMix(r *seedSource, n int, buf []int) {
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			r.Int63()
		case 1:
			r.Intn(1 + i%97)
		case 2:
			r.Intn(math.MaxInt32 + 1 + i)
		default:
			shuffle(r, buf)
		}
	}
}

// errStopShuffle stops firstShuffleDraws' Shuffle.
var errStopShuffle = errors.New("stop shuffling")

// firstShuffleDraws returns the indices math/rand's Shuffle of n
// elements draws for its first k swaps: Shuffle draws int31n(n - i) for
// swap i, and a panic in the swap function stops it there, so a shuffle
// of 2^31 elements costs only k draws.
func firstShuffleDraws(r *rand.Rand, n, k int) (js []int) {
	defer func() {
		if v := recover(); v != nil && v != errStopShuffle {
			panic(v)
		}
	}()
	r.Shuffle(n, func(_, j int) {
		js = append(js, j)
		if len(js) == k {
			panic(errStopShuffle)
		}
	})
	return js
}

// TestDrawReplicasMatchMathRand checks the sampler's direct draws
// against math/rand's Rand over its own source, draw for draw: Intn at
// every power of two (the masked path, through Int31n and Int63n), at
// small odd bounds and at bounds whose rejection loop runs often (just
// above 2^30, about 2^31 * 2/3, and just above 2^62), and at the largest
// bounds of each path; shuffle at every length from 0 to 64; and
// shuffleInt31n, the draw behind shuffle, near 2^31, taken from the
// first swaps of a stopped Shuffle: from 2^31 - 1 down, where it rarely
// rejects, and from just above 2^32/3 down, where 2^32 mod n is nearly n
// and its rejection loop runs a second time for about one draw in nine.
// shuffle's Int63n path needs more than 2^31 elements and is not run.
// After each seed's calls one more Int63 from each must agree, so both
// consumed the same number of values.
func TestDrawReplicasMatchMathRand(t *testing.T) {
	var bounds []int
	for k := 0; k <= 62; k++ {
		bounds = append(bounds, 1<<k)
	}
	bounds = append(bounds, 3, 5, 7, 97, 1000, 1<<30+1, 1431655766, 1<<31-2, math.MaxInt32,
		math.MaxInt32+2, 1<<62+1, math.MaxInt64)
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		var got seedSource
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for _, n := range bounds {
			for rep := 0; rep < 40; rep++ {
				if w, g := want.Intn(n), got.Intn(n); w != g {
					t.Fatalf("seed %d: Intn(%d) draw %d is %d, math/rand %d", seed, n, rep, g, w)
				}
			}
		}
		for n := 0; n <= 64; n++ {
			a, b := make([]int, n), make([]int, n)
			for i := range a {
				a[i], b[i] = i, i
			}
			want.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
			shuffle(&got, b)
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d: shuffle of %d is %v, math/rand %v", seed, n, b, a)
			}
		}
		for _, n := range []int{1431655965, math.MaxInt32} {
			for i, w := range firstShuffleDraws(want, n, 64) {
				if g := int(got.shuffleInt31n(int32(n - i))); g != w {
					t.Fatalf("seed %d: Shuffle of %d swap %d draws %d, math/rand %d", seed, n, i, g, w)
				}
			}
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("seed %d: the streams diverged", seed)
		}
	}
}

// FuzzSeedSourceMatchesMathRand: for any seed, a seedSource's draws
// through its Intn and shuffle replicas are math/rand's, past the
// 607-word wrap of the feedback register, also when the source is
// re-seeded in place after any number of draws.
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
			st.src.Seed(int64(i))
		}
	})
}
