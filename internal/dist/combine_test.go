package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
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

// oracleSumN is sumN with the oracle's convolution rebinned to convBins
// at every step, capped integer sums included. rebinned reports whether
// any step had more than convBins distinct sums: only there can a capped
// integer sum differ from sumN, which keeps it on the integers.
func oracleSumN(p *PMF, n int, ceiling float64) (sum *PMF, rebinned bool) {
	clip := func(q *PMF) *PMF { return clipAt(q, ceiling) }
	conv := func(x, y *PMF) *PMF {
		q := oracleCombine(x, y, false, 0)
		rebinned = rebinned || q.Len() > convBins
		return q.Rebin(convBins)
	}
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
	return acc, rebinned
}

// clipAt is sumN's clip: q with every value above ceiling moved to it.
func clipAt(q *PMF, ceiling float64) *PMF {
	if math.IsInf(ceiling, 1) || q.Max() <= ceiling {
		return q
	}
	return q.Map(func(v float64) float64 { return math.Min(v, ceiling) })
}

// bruteSumN enumerates the capped sum of one or two draws from a
// non-negative p: every pair of atoms, summed into a map in row-major
// order and clipped, as sumN clips its operands and each sum.
func bruteSumN(p *PMF, n int, ceiling float64) *PMF {
	x := clipAt(p, ceiling)
	if n == 1 {
		return x
	}
	return clipAt(oracleCombine(x, x, false, 0), ceiling)
}

// sequentialSumN is the capped sum of n draws from a PMF of non-negative
// integers, convolved one draw at a time with each partial sum clipped:
// the exact distribution, up to rounding. It returns the mass at each of
// 0..ceiling.
func sequentialSumN(p *PMF, n, ceiling int) []float64 {
	sum := make([]float64, ceiling+1)
	for _, pt := range p.pts {
		sum[min(int(pt.Value), ceiling)] += pt.Prob
	}
	next := make([]float64, ceiling+1)
	for range n - 1 {
		clear(next)
		for x, px := range sum {
			if px == 0 {
				continue
			}
			for _, pt := range p.pts {
				next[min(x+int(pt.Value), ceiling)] += px * pt.Prob
			}
		}
		sum, next = next, sum
	}
	return sum
}

// cdfGap returns the largest difference between the CDFs of got and the
// masses ref over 0, 1, ..., len(ref)-1, and fails the test unless got's
// atoms all lie on those integers.
func cdfGap(t testing.TB, what string, got *PMF, ref []float64) float64 {
	t.Helper()
	mass := make([]float64, len(ref))
	for _, pt := range got.pts {
		k := int(pt.Value)
		if float64(k) != pt.Value || k < 0 || k >= len(ref) {
			t.Fatalf("%s: atom %v is off the integers 0..%d", what, pt, len(ref)-1)
		}
		mass[k] = pt.Prob
	}
	gap, cg, cr := 0.0, 0.0, 0.0
	for k := range ref {
		cg += mass[k]
		cr += ref[k]
		gap = max(gap, math.Abs(cg-cr))
	}
	return gap
}

// latticeCDFTol bounds the CDF difference between a capped integer sum
// and sequentialSumN: rounding differences of two summation orders.
const latticeCDFTol = 1e-12

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

// bellInts returns a PMF over the integers lo..hi whose mass is
// bell-shaped around their midpoint, like a trained layer's weights.
func bellInts(t testing.TB, lo, hi int) *PMF {
	pts := make([]Point, 0, hi-lo+1)
	mid, sd := float64(lo+hi)/2, float64(hi-lo)/6
	for v := lo; v <= hi; v++ {
		x := (float64(v) - mid) / sd
		pts = append(pts, Point{Value: float64(v), Prob: math.Exp(-x * x / 2)})
	}
	return mustPoints(t, pts)
}

// selfWalk reports whether a+a takes the half walk of the sort path.
func selfWalk(a *PMF) bool {
	_, _, dense := lattice(a.pts, a.pts, false)
	return !dense && halfWalk(a.pts, a.pts, false)
}

// TestCombineMatchesOracle compares the kernel with the map-based oracle
// bit for bit on hand-picked edge cases.
func TestCombineMatchesOracle(t *testing.T) {
	u8, _ := UniformInts(0, 255)
	s8, _ := UniformInts(-128, 127)
	u3, _ := UniformInts(0, 3)
	u16, _ := UniformInts(0, 15)
	bit, _ := UniformInts(0, 1)
	tiny := mustPoints(t, []Point{{0, 1}, {1, 1e-170}, {2, 1e-200}, {3, 1}, {5, 1e-300}})
	allTiny := mustPoints(t, []Point{{-1, 1e-300}, {0, 1}, {4, 1e-300}})
	signedTiny := mustPoints(t, []Point{{-3, 1e-200}, {-1, 1}, {0, 1}, {2, 1e-250}})
	// Self-convolutions off the integers take the half walk. Macro C's
	// 1-bit by 8-bit cell, rebinned as PrepareLayer rebins it, lies on a
	// half-integer grid where most sums are held by more than two atoms.
	cell := Mul(bit, u8, 512).Rebin(128)
	bellCell := Mul(bit, bellInts(t, 0, 255), 512).Rebin(128)
	// Zero sums: -0+-0 is -0, x+-x is +0. The first's last zero atom in
	// (i, j) order is +0, the second's -0.
	zeros := mustPoints(t, []Point{{-1.5, 1}, {-0.5, 2}, {math.Copysign(0, -1), 3}, {0.5, 2}, {1.5, 1}})
	negZero := mustPoints(t, []Point{{-2.5, 1}, {-1.25, 1e-300}, {math.Copysign(0, -1), 3}, {0.75, 2}})
	// Products of these masses are subnormal (1e-160·1e-160) or
	// underflow to zero (1e-170·1e-200).
	subnormal := mustPoints(t, []Point{{0.5, 1}, {1.25, 1e-160}, {2.75, 1e-170}, {3.5, 1}, {4.25, 1e-200}, {6.75, 1e-160}})
	// Sums with 2^53 round away the small addend, so one row holds a
	// value more than once and the mirrors of a value are out of order.
	rounding := mustPoints(t, []Point{{0.125, 0.3}, {0.25, 0.7}, {0.375, 0.1}, {0.5, 1.3}, {1 << 53, 0.9}, {1<<53 + 2, 0.6}})
	for _, p := range []*PMF{cell, bellCell, zeros, negZero, subnormal, rounding} {
		if !selfWalk(p) {
			t.Fatalf("%v: self-convolution does not take the half walk", p.pts[:2])
		}
	}
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
				"self cell":        {cell, cell},
				"self bell cell":   {bellCell, bellCell},
				"self zeros":       {zeros, zeros},
				"self -0":          {negZero, negZero},
				"self subnormal":   {subnormal, subnormal},
				"self rounding":    {rounding, rounding},
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
// PMFs, at bin counts above and below the number of distinct results,
// including a self-convolution a+a per iteration.
func TestCombineMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const iters = 300
	self := 0
	for iter := 0; iter < iters; iter++ {
		a, b := randomPMF(t, rng, 200), randomPMF(t, rng, 200)
		n := []int{0, 1, 16, 128, 512, 4096}[rng.Intn(6)]
		checkCombine(t, fmt.Sprintf("conv random %d", iter), a, b, false, n)
		checkCombine(t, fmt.Sprintf("mul random %d", iter), a, b, true, n)
		if selfWalk(a) {
			self++
		}
		checkCombine(t, fmt.Sprintf("self random %d", iter), a, a, false, n)
	}
	if 2*self < iters {
		t.Fatalf("only %d of %d self-convolutions took the half walk", self, iters)
	}
}

// TestSumNMatchesOracle checks SumN and SumNCapped, which chain the
// kernel's convolutions. Uncapped sums, sums of non-integer PMFs, and
// capped integer sums whose old chain never rebinned match the oracle's
// chain bit for bit. Capped integer sums that the old chain rebinned off
// the integers are held to the exact distribution instead: to
// sequentialSumN within latticeCDFTol, and to enumeration bit for bit for
// up to two draws.
func TestSumNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u4, _ := UniformInts(0, 15)
	cell := Mul(u4, u4, 512).Rebin(128)
	wide, _ := UniformInts(0, 300)
	cases := []*PMF{cell, Delta(1), Delta(0), wide}
	for i := 0; i < 6; i++ {
		cases = append(cases, randomPMF(t, rng, 64))
	}
	exactChecked := 0
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
			want, _ := oracleSumN(p, depth, math.Inf(1))
			sameBits(t, fmt.Sprintf("SumN case %d depth %d", ci, depth), got, want)
			if p.Min() < 0 {
				continue
			}
			what := fmt.Sprintf("SumNCapped case %d depth %d", ci, depth)
			got, err = SumNCapped(p, depth, 256)
			if err != nil {
				t.Fatal(err)
			}
			want, rebinned := oracleSumN(p, depth, 256)
			if !rebinned || !integers(p.pts) {
				sameBits(t, what, got, want)
				continue
			}
			exactChecked++
			if gap := cdfGap(t, what, got, sequentialSumN(p, depth, 256)); gap > latticeCDFTol {
				t.Fatalf("%s: CDF differs from the sequential sum by %g", what, gap)
			}
			if depth <= 2 {
				sameBits(t, what+" (enumerated)", got, bruteSumN(p, depth, 256))
			}
		}
	}
	// case 0 at depths 16, 255 and 4096, and the wide case from depth 2.
	if exactChecked < 6 {
		t.Fatalf("only %d capped sums checked against the exact distribution", exactChecked)
	}
}

// randomLatticePMF draws a PMF of up to maxLen integer atoms, signed or
// not, up to 8 bits wide. Zero is sometimes -0, and some masses are small
// enough that products of two underflow or are subnormal.
func randomLatticePMF(t testing.TB, rng *rand.Rand, maxLen int) *PMF {
	m := []int{1, 3, 15, 40, 255}[rng.Intn(5)]
	lo := 0
	if rng.Intn(2) == 0 {
		lo = -m
	}
	n := 1 + rng.Intn(maxLen)
	pts := make([]Point, n)
	for i := range pts {
		v := float64(lo + rng.Intn(m-lo+1))
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		p := rng.Float64() + 1e-3
		if rng.Intn(4) == 0 {
			p = math.Ldexp(1+rng.Float64(), -500-rng.Intn(570))
		}
		pts[i] = Point{Value: v, Prob: p}
	}
	return mustPoints(t, pts)
}

// TestCombineMatchesOracleLattice compares the kernel with the oracle bit
// for bit on integer operands, which all take the dense path; the 8-bit
// products among them walk several windows.
func TestCombineMatchesOracleLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases, dense, wide := 0, 0, 0
	for iter := 0; iter < 600; iter++ {
		a, b := randomLatticePMF(t, rng, 64), randomLatticePMF(t, rng, 64)
		for _, n := range []int{0, 1, 2, 16, 128, 512, 4096} {
			for _, mul := range []bool{false, true} {
				if _, _, ok := lattice(a.pts, b.pts, mul); ok {
					dense++
				}
				if windowed(a, b, mul) {
					wide++
				}
				cases++
				checkCombine(t, fmt.Sprintf("lattice %d mul=%v n=%d", iter, mul, n), a, b, mul, n)
			}
		}
	}
	if dense < cases {
		t.Fatalf("only %d of %d cases took the dense path", dense, cases)
	}
	if 20*wide < cases {
		t.Fatalf("only %d of %d cases walked more than one window", wide, cases)
	}
}

// windowed reports whether a⊕b takes the dense path over more than one
// window.
func windowed(a, b *PMF, mul bool) bool {
	first, last, ok := lattice(a.pts, b.pts, mul)
	return ok && last-first >= latticeSpan
}

// TestCombineMatchesOracleWindowed compares the kernel with the oracle bit
// for bit on integer operands whose results span several windows: the
// 8-bit slice products PrepareLayer and workload.OutputPMF multiply, with
// uniform and bell-shaped masses, and wide sums, one of them over a
// non-contiguous support.
func TestCombineMatchesOracleWindowed(t *testing.T) {
	u8, _ := UniformInts(0, 255)
	s8, _ := UniformInts(-128, 127)
	bellU8, bellS8 := bellInts(t, 0, 255), bellInts(t, -128, 127)
	wide, _ := UniformInts(-1000, 3050)
	narrow, _ := UniformInts(0, 100)
	rng := rand.New(rand.NewSource(4))
	sparse := make([]Point, 300)
	for i := range sparse {
		sparse[i] = Point{Value: float64(rng.Intn(12000) - 6000), Prob: rng.Float64() + 1e-3}
	}
	gappy := mustPoints(t, sparse)
	cases := []struct {
		name string
		a, b *PMF
		mul  bool
	}{
		{"u8*u8", u8, u8, true},
		{"u8*s8", u8, s8, true},
		{"s8*u8", s8, u8, true},
		{"s8*s8", s8, s8, true},
		{"bell u8*s8", bellU8, bellS8, true},
		{"bell s8*s8", bellS8, bellS8, true},
		{"wide+narrow", wide, narrow, false},
		{"gappy+narrow", gappy, narrow, false},
		{"gappy+gappy", gappy, gappy, false},
	}
	for _, c := range cases {
		if !windowed(c.a, c.b, c.mul) {
			t.Fatalf("%s: does not take the windowed dense path", c.name)
		}
		for _, n := range []int{0, 256, 512} {
			checkCombine(t, fmt.Sprintf("%s n=%d", c.name, n), c.a, c.b, c.mul, n)
		}
	}
}

// TestCombineSparseWideProduct: products of 256 integers around ±10^5
// span about 4·10^10 values, and around ±5·10^3 about 5·10^7, but hold
// only 256² atoms. The first span is past latticeMax, so it takes the sort
// path; the second takes the dense path, which skips the windows that
// would hold no atom. Both match the oracle in about the time of any
// other product of that size.
func TestCombineSparseWideProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func(m int) *PMF {
		pts := make([]Point, 256)
		for i := range pts {
			pts[i] = Point{Value: float64(rng.Intn(2*m+1) - m), Prob: rng.Float64() + 1e-3}
		}
		return mustPoints(t, pts)
	}
	for _, c := range []struct {
		m     int
		dense bool
	}{{100000, false}, {5000, true}} {
		a, b := draw(c.m), draw(c.m)
		if _, _, ok := lattice(a.pts, b.pts, true); ok != c.dense || c.dense && !windowed(a, b, true) {
			t.Fatalf("±%d: dense path %v, want %v over several windows", c.m, ok, c.dense)
		}
		for _, n := range []int{0, 512} {
			start := time.Now()
			var cb combiner
			got := cb.combine(a.pts, b.pts, true, n)
			// Walking every window of the span would take minutes.
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("±%d n=%d: took %v", c.m, n, d)
			}
			sameBits(t, fmt.Sprintf("±%d n=%d", c.m, n), got, oracleCombine(a, b, true, n))
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

// FuzzSelfConvMatchesOracle: a self-convolution p+p, which takes the
// half walk off the integers, must match the map-based oracle bit for
// bit at any bin count.
func FuzzSelfConvMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0}, 4, uint8(1))
	f.Add([]byte{4, 0xfd, 0xff, 0, 0, 0xff, 0xff, 0x40, 0x28, 1, 0, 0x40, 0x28, 3, 0, 0, 0}, 512, uint8(1))
	f.Add([]byte{2, 0, 0, 0, 0x7f, 1, 0, 0, 0x7f}, 0, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, n int, scaleCode uint8) {
		scale := []float64{1, 0.5, 0.1, 1e-3, 3, 1e-300}[int(scaleCode)%6]
		p, _ := fuzzPMF(data, scale)
		if p == nil {
			return
		}
		checkCombine(t, "fuzz self", p, p, false, n%1024-1)
	})
}

// FuzzSumNCappedLattice: a capped sum of non-negative integers must be
// the exact distribution — sequentialSumN within latticeCDFTol, and the
// enumerated sum bit for bit for up to two draws.
func FuzzSumNCappedLattice(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 1, 0, 0, 0}, uint16(2304), uint16(256))
	f.Add([]byte{4, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint16(16), uint16(256))
	f.Add([]byte{1, 0x2c, 0x01, 0, 0, 0, 0, 0x7f, 0x30}, uint16(2), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, depth, ceiling uint16) {
		p, _ := fuzzPMF(data, 1)
		if p == nil || p.Min() < 0 {
			return
		}
		n, c := int(depth)%600+1, int(ceiling)%convBins+1
		got, err := SumNCapped(p, n, float64(c))
		if err != nil {
			t.Fatal(err)
		}
		if gap := cdfGap(t, "fuzz", got, sequentialSumN(p, n, c)); gap > latticeCDFTol {
			t.Fatalf("depth %d cap %d: CDF differs from the sequential sum by %g", n, c, gap)
		}
		if n <= 2 {
			sameBits(t, "fuzz (enumerated)", got, bruteSumN(p, n, float64(c)))
		}
	})
}
