package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromPointsNormalization(t *testing.T) {
	// Unnormalized, unsorted, duplicated input.
	p, err := FromPoints([]Point{
		{Value: 2, Prob: 1},
		{Value: 0, Prob: 2},
		{Value: 2, Prob: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len %d, want 2 (duplicates merged)", p.Len())
	}
	if !almost(p.ProbAt(0), 0.5, 1e-12) || !almost(p.ProbAt(2), 0.5, 1e-12) {
		t.Fatalf("probs %g/%g, want 0.5/0.5", p.ProbAt(0), p.ProbAt(2))
	}
	if p.Min() != 0 || p.Max() != 2 || !almost(p.Mean(), 1, 1e-12) {
		t.Fatalf("min/max/mean = %g/%g/%g", p.Min(), p.Max(), p.Mean())
	}

	for _, bad := range [][]Point{
		nil,
		{{Value: 1, Prob: 0}},
		{{Value: 1, Prob: -0.5}},
		{{Value: math.NaN(), Prob: 1}},
		{{Value: math.Inf(1), Prob: 1}},
	} {
		if _, err := FromPoints(bad); err == nil {
			t.Fatalf("want error for %v", bad)
		}
	}
}

// TestRestoreBitExact: Adopt applied to a copy of p.Points() reproduces
// the PMF without renormalization — every value and probability
// bit-identical — while invalid point lists (the failure modes of a
// corrupted serialization) are rejected.
func TestRestoreBitExact(t *testing.T) {
	src, err := FromPoints([]Point{{0, 0.3}, {1, 0.1}, {2, 0.45}, {7, 0.15}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Adopt(append([]Point(nil), src.Points()...))
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range got.Points() {
		if pt != src.Points()[i] {
			t.Fatalf("point %d: %+v != %+v (must be bit-identical)", i, pt, src.Points()[i])
		}
	}
	// Adopting a copy: mutating the points copied from afterwards must
	// not alias.
	pts := append([]Point(nil), src.Points()...)
	restored, err := Adopt(append([]Point(nil), pts...))
	if err != nil {
		t.Fatal(err)
	}
	pts[0].Prob = 0.9999
	if restored.Points()[0].Prob != src.Points()[0].Prob {
		t.Fatal("Adopt of a copy must not alias the points copied from")
	}
	for name, bad := range map[string][]Point{
		"empty":          {},
		"unsorted":       {{2, 0.5}, {1, 0.5}},
		"duplicate":      {{1, 0.5}, {1, 0.5}},
		"negative prob":  {{1, 1.5}, {2, -0.5}},
		"mass not unity": {{1, 0.25}, {2, 0.25}},
		"non-finite":     {{math.Inf(1), 1}},
	} {
		if _, err := Adopt(bad); err == nil {
			t.Fatalf("%s: Adopt must reject invalid points", name)
		}
	}
}

func TestConstructors(t *testing.T) {
	d := Delta(3)
	if d.Len() != 1 || d.Mean() != 3 || d.ProbAt(3) != 1 {
		t.Fatal("delta wrong")
	}
	u, err := UniformInts(-2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 5 || !almost(u.Mean(), 0, 1e-12) || !almost(u.ProbZero(), 0.2, 1e-12) {
		t.Fatalf("uniform wrong: len=%d mean=%g p0=%g", u.Len(), u.Mean(), u.ProbZero())
	}
	if _, err := UniformInts(3, 2); err == nil {
		t.Fatal("empty range must error")
	}
	s, err := FromSamples([]float64{1, 1, 2, 2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.ProbAt(2), 0.5, 1e-12) || !almost(s.ProbAt(5), 1.0/6, 1e-12) {
		t.Fatalf("samples wrong: %v", s.Points())
	}
	if _, err := FromSamples(nil); err == nil {
		t.Fatal("no samples must error")
	}
}

func TestExpectedAndMap(t *testing.T) {
	u, _ := UniformInts(0, 3)
	// E[X^2] over {0,1,2,3} = (0+1+4+9)/4.
	if got := u.Expected(func(v float64) float64 { return v * v }); !almost(got, 3.5, 1e-12) {
		t.Fatalf("E[X^2] = %g, want 3.5", got)
	}
	m := u.Map(func(v float64) float64 { return math.Min(v, 2) })
	if m.Max() != 2 || !almost(m.ProbAt(2), 0.5, 1e-12) {
		t.Fatalf("map-clamp wrong: %v", m.Points())
	}
}

// TestMixConvexCombination checks Mix(a, b, w) = w*a + (1-w)*b.
func TestMixConvexCombination(t *testing.T) {
	a := Delta(0)
	b := Delta(10)
	m, err := Mix(a, b, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.ProbAt(0), 0.25, 1e-12) || !almost(m.ProbAt(10), 0.75, 1e-12) {
		t.Fatalf("mix probs wrong: %v", m.Points())
	}
	if !almost(m.Mean(), 7.5, 1e-12) {
		t.Fatalf("mix mean %g, want 7.5", m.Mean())
	}
	if got, _ := Mix(a, b, 0); got != b {
		t.Fatal("w=0 must return b")
	}
	if got, _ := Mix(a, b, 1); got != a {
		t.Fatal("w=1 must return a")
	}
	if _, err := Mix(a, b, 1.5); err == nil {
		t.Fatal("w out of range must error")
	}
	if _, err := Mix(nil, b, 0.5); err == nil {
		t.Fatal("nil operand must error")
	}
}

// TestConvolutionIdentities checks the algebra the energy pipeline relies
// on: sums of independent variables add means, products multiply them.
func TestConvolutionIdentities(t *testing.T) {
	u, _ := UniformInts(0, 7)

	// SumN(p, 1) is p itself (up to rebinning, which is a no-op here).
	s1, err := SumN(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s1.Mean(), u.Mean(), 1e-12) || s1.Len() != u.Len() {
		t.Fatalf("SumN(p,1) changed the distribution")
	}

	// E[X1+...+Xn] = n*E[X]; support spans [n*min, n*max].
	for _, n := range []int{2, 3, 7, 100} {
		s, err := SumN(u, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("SumN(%d): %v", n, err)
		}
		if !almost(s.Mean(), float64(n)*u.Mean(), 1e-6*float64(n)) {
			t.Fatalf("SumN(%d) mean %g, want %g", n, s.Mean(), float64(n)*u.Mean())
		}
		if s.Min() < 0 || s.Max() > float64(n)*u.Max()+1e-9 {
			t.Fatalf("SumN(%d) support [%g, %g] out of range", n, s.Min(), s.Max())
		}
	}

	// Sum of two deltas is a delta at the sum.
	d, err := SumN(Delta(2.5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || !almost(d.Mean(), 10, 1e-12) {
		t.Fatalf("sum of deltas: %v", d.Points())
	}

	// Mul multiplies means of independent variables.
	a, _ := UniformInts(0, 3)
	b, _ := UniformInts(1, 4)
	prod := Mul(a, b, 0)
	if err := prod.Validate(); err != nil {
		t.Fatal(err)
	}
	if !almost(prod.Mean(), a.Mean()*b.Mean(), 1e-12) {
		t.Fatalf("E[XY] = %g, want %g", prod.Mean(), a.Mean()*b.Mean())
	}
	// Exact two-fold convolution of uniform {0,1}: triangle 1/4, 1/2, 1/4.
	c, _ := UniformInts(0, 1)
	tri, err := SumN(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(tri.ProbAt(0), 0.25, 1e-12) || !almost(tri.ProbAt(1), 0.5, 1e-12) || !almost(tri.ProbAt(2), 0.25, 1e-12) {
		t.Fatalf("triangle wrong: %v", tri.Points())
	}

	if _, err := SumN(u, 0); err == nil {
		t.Fatal("n=0 must error")
	}
}

// TestSumNCappedClipping checks the saturation semantics: mass beyond the
// cap piles up at the cap, mass below is untouched.
func TestSumNCappedClipping(t *testing.T) {
	u, _ := UniformInts(0, 3)

	// Cap far above the support: identical to the uncapped sum.
	s, err := SumN(u, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SumNCapped(u, 8, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Mean(), c.Mean(), 1e-9) {
		t.Fatalf("loose cap changed the mean: %g vs %g", s.Mean(), c.Mean())
	}

	// Tight cap: support clips at the cap and the mean drops.
	capAt := 10.0
	cc, err := SumNCapped(u, 8, capAt)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Max() > capAt {
		t.Fatalf("support %g exceeds cap %g", cc.Max(), capAt)
	}
	if cc.Mean() >= s.Mean() {
		t.Fatalf("clipping must lower the mean: %g vs %g", cc.Mean(), s.Mean())
	}
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}

	// Degenerate: every draw saturates.
	sat, err := SumNCapped(Delta(100), 16, 50)
	if err != nil {
		t.Fatal(err)
	}
	if sat.Len() != 1 || sat.Mean() != 50 {
		t.Fatalf("saturated sum: %v", sat.Points())
	}

	if _, err := SumNCapped(u, 4, 0); err == nil {
		t.Fatal("non-positive cap must error")
	}
}

func TestRebinPreservesMeanAndMass(t *testing.T) {
	u, _ := UniformInts(0, 999)
	r := u.Rebin(64)
	if r.Len() > 64 {
		t.Fatalf("rebin len %d > 64", r.Len())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !almost(r.Mean(), u.Mean(), 1e-9) {
		t.Fatalf("rebin mean %g, want %g", r.Mean(), u.Mean())
	}
	if got := u.Rebin(0); got != u {
		t.Fatal("n<=0 must be a no-op")
	}
	if got := u.Rebin(2000); got != u {
		t.Fatal("wide rebin must be a no-op")
	}
}

// TestRebinExactLength pins that Rebin allocates exactly its non-empty
// bins, and that each bin is the mass and conditional mean of its atoms.
func TestRebinExactLength(t *testing.T) {
	// Clustered support: 600 atoms in three runs leave most of 512 bins
	// empty.
	var pts []Point
	for _, base := range []float64{0, 5000, 9000} {
		for i := 0; i < 200; i++ {
			pts = append(pts, Point{Value: base + float64(i)*0.25, Prob: float64(1 + i%7)})
		}
	}
	p, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rebin(512)
	if got := r.Points(); cap(got) != len(got) {
		t.Fatalf("Rebin(512) kept %d points in capacity %d", len(got), cap(got))
	}
	// Reference: the same binning, accumulated bin by bin.
	lo, width := p.Min(), (p.Max()-p.Min())/512
	var want []Point
	k, mass, moment := -1, 0.0, 0.0
	for _, pt := range p.Points() {
		if i := min(int((pt.Value-lo)/width), 511); i != k {
			if k >= 0 {
				want = append(want, Point{Value: moment / mass, Prob: mass})
			}
			k, mass, moment = i, 0, 0
		}
		mass += pt.Prob
		moment += pt.Prob * pt.Value
	}
	want = append(want, Point{Value: moment / mass, Prob: mass})
	got := r.Points()
	if len(got) != len(want) {
		t.Fatalf("Rebin(512) has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) ||
			math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Property: FromPoints output always validates and preserves the
// mass-weighted mean of its input.
func TestFromPointsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]Point, len(raw))
		total := 0.0
		moment := 0.0
		for i, r := range raw {
			pts[i] = Point{Value: float64(r % 16), Prob: float64(r%7) + 1}
			total += pts[i].Prob
			moment += pts[i].Prob * pts[i].Value
		}
		p, err := FromPoints(pts)
		if err != nil {
			return false
		}
		return p.Validate() == nil && almost(p.Mean(), moment/total, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
