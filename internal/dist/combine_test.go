package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The map-based reference the combine kernel replaces: every product
// atom is added into a map keyed by value, in row-major order.

// oracleCombine returns the distribution of a⊕b (a·b when mul, a+b
// otherwise) rebinned to at most n points.
func oracleCombine(a, b *PMF, mul bool, n int) *PMF {
	acc := make(map[float64]float64, a.Len()*b.Len())
	for _, pa := range a.pts {
		for _, pb := range b.pts {
			v := pa.Value + pb.Value
			if mul {
				v = pa.Value * pb.Value
			}
			acc[v] += pa.Prob * pb.Prob
		}
	}
	return fromMap(acc).Rebin(n)
}

// fromMap assembles a PMF from an accumulator map. Sums whose mass
// underflowed to zero are dropped; the rest are sorted by value and not
// renormalized, since their mass sums to one up to rounding.
func fromMap(acc map[float64]float64) *PMF {
	pts := make([]Point, 0, len(acc))
	for v, p := range acc {
		if p > 0 {
			pts = append(pts, Point{Value: v, Prob: p})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Value < pts[j].Value })
	return &PMF{pts: pts}
}

// oracleSumN is sumN with the oracle's convolution.
func oracleSumN(p *PMF, n int, ceiling float64) *PMF {
	clip := func(q *PMF) *PMF {
		if math.IsInf(ceiling, 1) || q.Max() <= ceiling {
			return q
		}
		return q.Map(func(v float64) float64 { return math.Min(v, ceiling) })
	}
	conv := func(x, y *PMF) *PMF { return oracleCombine(x, y, false, convBins) }
	base := clip(p.Rebin(convBins))
	var acc *PMF
	for n > 0 {
		if n&1 == 1 {
			if acc == nil {
				acc = base
			} else {
				acc = clip(conv(acc, base))
			}
		}
		n >>= 1
		if n > 0 {
			base = clip(conv(base, base))
		}
	}
	return acc
}

// sameBits reports whether got and want hold bit-identical points.
func sameBits(t *testing.T, what string, got, want *PMF) {
	t.Helper()
	g, w := got.Points(), want.Points()
	if len(g) != len(w) {
		t.Fatalf("%s: %d points, oracle has %d", what, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i].Value) != math.Float64bits(w[i].Value) ||
			math.Float64bits(g[i].Prob) != math.Float64bits(w[i].Prob) {
			t.Fatalf("%s: point %d is %v, oracle has %v", what, i, g[i], w[i])
		}
	}
}

func checkCombine(t *testing.T, what string, a, b *PMF, mul bool, n int) {
	t.Helper()
	var c combiner
	sameBits(t, what, c.combine(a.pts, b.pts, mul, n), oracleCombine(a, b, mul, n))
}

// mustPoints builds a PMF from points, failing the test on error.
func mustPoints(t testing.TB, pts []Point) *PMF {
	t.Helper()
	p, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomPMF draws a PMF of up to maxLen points from one of several
// families: integer grids (whose sums and products repeat), signed
// grids, irregular reals, and grids carrying masses so small that their
// products underflow to zero.
func randomPMF(t testing.TB, rng *rand.Rand, maxLen int) *PMF {
	n := 1 + rng.Intn(maxLen)
	pts := make([]Point, n)
	family := rng.Intn(4)
	for i := range pts {
		var v float64
		switch family {
		case 0:
			v = float64(rng.Intn(2 * n))
		case 1:
			v = float64(rng.Intn(2*n) - n)
		case 2:
			v = rng.NormFloat64() * 100
		default:
			v = float64(rng.Intn(4*n)-n) / 8
		}
		p := rng.Float64() + 1e-3
		if family == 3 && rng.Intn(3) == 0 {
			p = math.Ldexp(1+rng.Float64(), -500-rng.Intn(560))
		}
		pts[i] = Point{Value: v, Prob: p}
	}
	return mustPoints(t, pts)
}

// TestCombineMatchesOracle compares the kernel with the map-based oracle
// bit for bit on hand-picked edge cases.
func TestCombineMatchesOracle(t *testing.T) {
	u8, _ := UniformInts(0, 255)
	s8, _ := UniformInts(-128, 127)
	u3, _ := UniformInts(0, 3)
	u16, _ := UniformInts(0, 15)
	tiny := mustPoints(t, []Point{{0, 1}, {1, 1e-170}, {2, 1e-200}, {3, 1}, {5, 1e-300}})
	allTiny := mustPoints(t, []Point{{-1, 1e-300}, {0, 1}, {4, 1e-300}})
	signedTiny := mustPoints(t, []Point{{-3, 1e-200}, {-1, 1}, {0, 1}, {2, 1e-250}})
	for _, n := range []int{0, 1, 2, 7, 128, 256, 512} {
		for _, mul := range []bool{false, true} {
			for name, pair := range map[string][2]*PMF{
				"repeating sums":   {u8, u8},
				"signed":           {s8, u8},
				"signed both":      {s8, s8},
				"few distinct":     {u3, u16},
				"delta left":       {Delta(2.5), u16},
				"delta right":      {s8, Delta(-0.5)},
				"deltas":           {Delta(3), Delta(-2)},
				"zero delta":       {Delta(0), s8},
				"underflow":        {tiny, tiny},
				"underflow bounds": {allTiny, allTiny},
				"underflow signed": {signedTiny, s8},
			} {
				op := "conv"
				if mul {
					op = "mul"
				}
				checkCombine(t, fmt.Sprintf("%s %s n=%d", op, name, n), pair[0], pair[1], mul, n)
			}
		}
	}
}

// TestCombineOverflowTerminates: sums and products that overflow to ±Inf
// (on which Rebin, and so the oracle, panics) must not stall or crash the
// kernel's walk over the bins.
func TestCombineOverflowTerminates(t *testing.T) {
	huge := mustPoints(t, []Point{{-1e308, 1}, {0, 1}, {1, 1}, {1e308, 1}})
	small := mustPoints(t, []Point{{0, 1}, {0.5, 1}, {1, 1}})
	for _, n := range []int{0, 1, 2, 512} {
		for _, mul := range []bool{false, true} {
			// huge⊕huge overflows; huge⊕small spans so wide that Rebin's
			// bin width overflows.
			for _, b := range []*PMF{huge, small} {
				var c combiner
				if got := c.combine(huge.pts, b.pts, mul, n); got.Len() == 0 {
					t.Fatalf("mul=%v n=%d: no points", mul, n)
				}
			}
		}
	}
}

// TestCombineMatchesOracleRandom is the same comparison over random
// PMFs, at bin counts above and below the number of distinct results.
func TestCombineMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		a, b := randomPMF(t, rng, 200), randomPMF(t, rng, 200)
		n := []int{0, 1, 16, 128, 512, 4096}[rng.Intn(6)]
		checkCombine(t, fmt.Sprintf("conv random %d", iter), a, b, false, n)
		checkCombine(t, fmt.Sprintf("mul random %d", iter), a, b, true, n)
	}
}

// TestSumNMatchesOracle checks SumN and SumNCapped, which chain the
// kernel's convolutions, against the oracle's chain.
func TestSumNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u4, _ := UniformInts(0, 15)
	cell := Mul(u4, u4, 512).Rebin(128)
	cases := []*PMF{cell, Delta(1), Delta(0)}
	for i := 0; i < 6; i++ {
		cases = append(cases, randomPMF(t, rng, 64))
	}
	for ci, p := range cases {
		depths := []int{1, 2, 3, 16}
		if p == cell {
			depths = append(depths, 255, 4096)
		}
		for _, depth := range depths {
			got, err := SumN(p, depth)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("SumN case %d depth %d", ci, depth), got, oracleSumN(p, depth, math.Inf(1)))
			if p.Min() < 0 {
				continue
			}
			got, err = SumNCapped(p, depth, 256)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("SumNCapped case %d depth %d", ci, depth), got, oracleSumN(p, depth, 256))
		}
	}
}

// fuzzPMF decodes up to 64 points of 4 bytes each: a signed 16-bit value
// times scale, and a mass 2^-e·(1+f) whose exponent reaches the
// subnormal range, so products can underflow.
func fuzzPMF(data []byte, scale float64) (*PMF, []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n := min(int(data[0])%64+1, (len(data)-1)/4)
	data = data[1:]
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		v := float64(int16(binary.LittleEndian.Uint16(data)))
		code := binary.LittleEndian.Uint16(data[2:])
		pts = append(pts, Point{Value: v * scale, Prob: math.Ldexp(1+float64(code&0xff)/256, -int(code>>8)*4)})
		data = data[4:]
	}
	p, err := FromPoints(pts)
	if err != nil {
		return nil, data
	}
	return p, data
}

// FuzzCombineMatchesOracle: for arbitrary operand PMFs, operations and
// bin counts, the kernel must match the map-based oracle bit for bit.
func FuzzCombineMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0xff, 0xff, 0, 0, 3, 0, 0, 0}, false, 4, uint8(0))
	f.Add([]byte{2, 5, 0, 0, 0xf0, 6, 0, 0, 0, 1, 0xfd, 0xff, 0, 0}, true, 512, uint8(1))
	f.Add([]byte{1, 1, 0, 0, 0, 0}, true, 0, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mul bool, n int, scaleCode uint8) {
		scale := []float64{1, 0.5, 0.1, 1e-3, 3, 1e-300}[int(scaleCode)%6]
		a, rest := fuzzPMF(data, scale)
		b, _ := fuzzPMF(rest, scale)
		if a == nil || b == nil {
			return
		}
		n = n%1024 - 1
		checkCombine(t, "fuzz", a, b, mul, n)
	})
}
