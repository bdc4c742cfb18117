// Package dist implements the discrete value distributions (probability
// mass functions) that carry CiMLoop's data-value dependence (paper
// §III-C/§III-D): operand PMFs are synthesized from workload statistics or
// recorded from tensors, transformed by encodings and bit slicing, and
// finally reduced by the circuit plug-ins to an expected energy per action.
//
// A PMF is an immutable, sorted, normalized list of (value, probability)
// points. Combinators never modify their inputs, though some return an
// input unchanged: Mix with weight 0 or 1, and Rebin of a PMF that
// already fits its bin count. A *PMF is therefore safe to share across
// goroutines, which is what lets layer contexts be cached and reused by
// concurrent sweeps (package serve).
//
// Mul and the convolutions of SumN share one combine kernel (combine.go)
// with two paths: a dense array for integer operands, 8-bit slice
// products included, filled one window of values at a time, and a
// sorting walk over the output bins for the rest, which walks only half
// of a self-convolution. Both are bit-identical to accumulating the
// products in a map and calling Rebin, which the tests keep as an
// oracle. SumNCapped keeps integer sums on the integers under an integer
// cap (see there), and so computes the exact capped distribution where
// rebinning each step would not.
package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is one atom of probability mass.
type Point struct {
	Value float64
	Prob  float64
}

// PMF is a discrete probability distribution over float64 values. Points
// are sorted by value, duplicates merged, and probabilities normalized to
// sum to one. The zero value is not usable; construct via FromPoints,
// FromSamples, Delta, or UniformInts.
type PMF struct {
	pts []Point
}

// FromPoints builds a PMF from arbitrary points: duplicates are merged,
// zero-mass points dropped, values sorted, and probabilities normalized.
// It rejects empty input, non-finite values, and negative probabilities.
func FromPoints(pts []Point) (*PMF, error) {
	if len(pts) == 0 {
		return nil, errors.New("dist: no points")
	}
	cp := make([]Point, 0, len(pts))
	total := 0.0
	for _, pt := range pts {
		if math.IsNaN(pt.Value) || math.IsInf(pt.Value, 0) {
			return nil, fmt.Errorf("dist: non-finite value %g", pt.Value)
		}
		if math.IsNaN(pt.Prob) || pt.Prob < 0 {
			return nil, fmt.Errorf("dist: invalid probability %g at value %g", pt.Prob, pt.Value)
		}
		if pt.Prob == 0 {
			continue
		}
		cp = append(cp, pt)
		total += pt.Prob
	}
	if total <= 0 {
		return nil, errors.New("dist: zero total probability")
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i].Value < cp[j].Value })
	out := cp[:0]
	for _, pt := range cp {
		if n := len(out); n > 0 && out[n-1].Value == pt.Value {
			out[n-1].Prob += pt.Prob
			continue
		}
		out = append(out, pt)
	}
	if total != 1 {
		for i := range out {
			out[i].Prob /= total
		}
	}
	return &PMF{pts: out}, nil
}

// FromSamples builds an empirical PMF from observed values, each sample
// carrying equal mass (the paper's RecordOperandPMFs).
func FromSamples(samples []float64) (*PMF, error) {
	if len(samples) == 0 {
		return nil, errors.New("dist: no samples")
	}
	counts := make(map[float64]float64, 64)
	for _, s := range samples {
		counts[s]++
	}
	pts := make([]Point, 0, len(counts))
	for v, c := range counts {
		pts = append(pts, Point{Value: v, Prob: c})
	}
	return FromPoints(pts)
}

// Delta returns the degenerate distribution concentrated at v.
func Delta(v float64) *PMF {
	return &PMF{pts: []Point{{Value: v, Prob: 1}}}
}

// Restore rebuilds a PMF from points previously obtained via Points,
// without renormalizing: the input must already satisfy the PMF
// invariants (sorted, strictly increasing, positive mass summing to one
// within tolerance). Unlike FromPoints — whose normalization divides every
// probability by the float sum and so can perturb the stored bits —
// Restore copies the points verbatim, which is what lets a serialized PMF
// round-trip bit-exactly (package persist's warm-start codec).
func Restore(pts []Point) (*PMF, error) {
	return Adopt(append([]Point(nil), pts...))
}

// Adopt is Restore without the copy: the PMF takes pts as its atoms, so
// the caller must neither use nor change pts afterwards. It is for a
// caller that built pts for this PMF alone, such as a decoder.
func Adopt(pts []Point) (*PMF, error) {
	p := &PMF{pts: pts}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// UniformInts returns the uniform distribution over the integers
// lo, lo+1, ..., hi inclusive.
func UniformInts(lo, hi int) (*PMF, error) {
	if hi < lo {
		return nil, fmt.Errorf("dist: uniform range [%d, %d] is empty", lo, hi)
	}
	n := hi - lo + 1
	pts := make([]Point, n)
	p := 1 / float64(n)
	for i := 0; i < n; i++ {
		pts[i] = Point{Value: float64(lo + i), Prob: p}
	}
	return &PMF{pts: pts}, nil
}

// Points returns the distribution's atoms in increasing value order. The
// returned slice is shared; callers must not modify it.
func (p *PMF) Points() []Point { return p.pts }

// Validate checks the PMF's invariants: non-empty, strictly increasing
// finite values, positive probabilities, and unit total mass.
func (p *PMF) Validate() error {
	if p == nil || len(p.pts) == 0 {
		return errors.New("dist: empty PMF")
	}
	total := 0.0
	for i, pt := range p.pts {
		if math.IsNaN(pt.Value) || math.IsInf(pt.Value, 0) {
			return fmt.Errorf("dist: non-finite value %g", pt.Value)
		}
		if pt.Prob <= 0 || math.IsNaN(pt.Prob) {
			return fmt.Errorf("dist: non-positive probability %g at value %g", pt.Prob, pt.Value)
		}
		if i > 0 && p.pts[i-1].Value >= pt.Value {
			return fmt.Errorf("dist: values not strictly increasing at index %d", i)
		}
		total += pt.Prob
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("dist: total probability %g != 1", total)
	}
	return nil
}

// ProbAt returns P(X == v), zero when v is not in the support.
func (p *PMF) ProbAt(v float64) float64 {
	i := sort.Search(len(p.pts), func(i int) bool { return p.pts[i].Value >= v })
	if i < len(p.pts) && p.pts[i].Value == v {
		return p.pts[i].Prob
	}
	return 0
}

// ProbZero returns P(X == 0), the sparsity of the distribution.
func (p *PMF) ProbZero() float64 { return p.ProbAt(0) }

// Len returns the number of distinct support values.
func (p *PMF) Len() int { return len(p.pts) }

// Min returns the smallest support value.
func (p *PMF) Min() float64 { return p.pts[0].Value }

// Max returns the largest support value.
func (p *PMF) Max() float64 { return p.pts[len(p.pts)-1].Value }

// Mean returns the expected value.
func (p *PMF) Mean() float64 {
	m := 0.0
	for _, pt := range p.pts {
		m += pt.Value * pt.Prob
	}
	return m
}

// Expected returns E[f(X)], the probability-weighted mean of f over the
// support. This is the reduction every circuit model applies to turn a
// value distribution into an average energy per action.
func (p *PMF) Expected(f func(float64) float64) float64 {
	e := 0.0
	for _, pt := range p.pts {
		e += pt.Prob * f(pt.Value)
	}
	return e
}

// Map transforms every support value through f, merging collisions.
func (p *PMF) Map(f func(float64) float64) *PMF {
	pts := make([]Point, len(p.pts))
	for i, pt := range p.pts {
		pts[i] = Point{Value: f(pt.Value), Prob: pt.Prob}
	}
	out, err := FromPoints(pts)
	if err != nil {
		// Probabilities are untouched, so the only failure mode is f
		// producing non-finite values; collapse those to a point mass.
		return Delta(0)
	}
	return out
}

// Rebin merges the support down to at most n bins. Each bin keeps its
// conditional mean value, so the overall mean is preserved exactly while
// the support (and thus downstream convolution cost) is bounded.
func (p *PMF) Rebin(n int) *PMF {
	if n <= 0 || len(p.pts) <= n {
		return p
	}
	lo, hi := p.Min(), p.Max()
	width := (hi - lo) / float64(n)
	if width <= 0 {
		return p
	}
	type bin struct{ mass, moment float64 }
	bins := make([]bin, n)
	for _, pt := range p.pts {
		i := int((pt.Value - lo) / width)
		if i >= n {
			i = n - 1
		}
		bins[i].mass += pt.Prob
		bins[i].moment += pt.Prob * pt.Value
	}
	kept := 0
	for _, b := range bins {
		if b.mass > 0 {
			kept++
		}
	}
	// Exactly the non-empty bins: a rebinned PMF may be kept long-lived
	// (a memoized column sum), and spare capacity would be kept with it.
	pts := make([]Point, 0, kept)
	for _, b := range bins {
		if b.mass <= 0 {
			continue
		}
		pts = append(pts, Point{Value: b.moment / b.mass, Prob: b.mass})
	}
	return &PMF{pts: pts}
}

// Compact returns p with no spare capacity behind its points: p itself,
// or an exact-length copy. For PMFs kept long-lived, such as memoized
// sums that clipping merged down from a larger support.
func (p *PMF) Compact() *PMF {
	if cap(p.pts) == len(p.pts) {
		return p
	}
	pts := make([]Point, len(p.pts))
	copy(pts, p.pts)
	return &PMF{pts: pts}
}

// Mix returns the mixture w·a + (1-w)·b: a value drawn from a with
// probability w, from b otherwise.
func Mix(a, b *PMF, w float64) (*PMF, error) {
	if a == nil || b == nil {
		return nil, errors.New("dist: mix of nil PMF")
	}
	if w < 0 || w > 1 || math.IsNaN(w) {
		return nil, fmt.Errorf("dist: mixture weight %g out of [0,1]", w)
	}
	if w == 0 {
		return b, nil
	}
	if w == 1 {
		return a, nil
	}
	pts := make([]Point, 0, a.Len()+b.Len())
	for _, pt := range a.pts {
		pts = append(pts, Point{Value: pt.Value, Prob: pt.Prob * w})
	}
	for _, pt := range b.pts {
		pts = append(pts, Point{Value: pt.Value, Prob: pt.Prob * (1 - w)})
	}
	return FromPoints(pts)
}

// Mul returns the distribution of X·Y for independent X ~ a, Y ~ b,
// rebinned to at most bins points (as Rebin(bins) would; bins <= 0 keeps
// every distinct product).
func Mul(a, b *PMF, bins int) *PMF {
	var c combiner
	return c.combine(a.pts, b.pts, true, bins)
}

// convBins bounds the support of intermediate convolution results. 512
// bins keep SumN over tens of thousands of terms fast while the
// conditional-mean rebinning keeps the running mean exact.
const convBins = 512

// SumN returns the distribution of the sum of n independent draws from p,
// computed by binary-exponentiation convolution (log2 n convolutions) with
// bounded intermediate support.
func SumN(p *PMF, n int) (*PMF, error) {
	return sumN(p, n, math.Inf(1))
}

// SumNCapped is SumN with saturation: the running sum clips at cap, the
// partial-sum clipping real macros apply when the analog swing saturates
// (the "+1 bit per 4x rows" coupling of the ADC sizing study). For the
// non-negative slice-product PMFs this models, clipping each partial sum
// is identical to clipping the final sum.
//
// A non-negative integer PMF (the cell products of few-bit CiM cells)
// summed under an integer cap of at most 512 stays on the integers: each
// doubling is convolved exactly, at most 2·cap+1 points, and the overflow
// is folded into the cap, so the result is the exact capped distribution
// up to rounding. Every other input is rebinned to 512 points per step:
// an integer input on combine's dense path until its first rebin moves
// it off the integers, and on the sort path from then on, where each
// doubling is a self-convolution of which the kernel walks only half
// (combine.go).
func SumNCapped(p *PMF, n int, ceiling float64) (*PMF, error) {
	if ceiling <= 0 || math.IsNaN(ceiling) {
		return nil, fmt.Errorf("dist: sum cap %g must be positive", ceiling)
	}
	return sumN(p, n, ceiling)
}

func sumN(p *PMF, n int, ceiling float64) (*PMF, error) {
	if p == nil {
		return nil, errors.New("dist: sum of nil PMF")
	}
	if n <= 0 {
		return nil, fmt.Errorf("dist: sum of %d draws", n)
	}
	clip := func(q *PMF) *PMF {
		if math.IsInf(ceiling, 1) || q.Max() <= ceiling {
			return q
		}
		return q.Map(func(v float64) float64 { return math.Min(v, ceiling) })
	}
	// conv returns the distribution of X+Y for independent X ~ x,
	// Y ~ y, rebinned to at most convBins points — or exact, when both
	// are non-negative integers under an integer cap of at most
	// convBins, since clip then brings the sum back to cap+1 points.
	// Rebinning such a sum would move it off the integers, by rounding
	// the bin means, for every later step.
	var c combiner
	integerCap := ceiling <= convBins && ceiling == math.Trunc(ceiling)
	conv := func(x, y *PMF) *PMF {
		bins := convBins
		if integerCap && x.Min() >= 0 && y.Min() >= 0 && integers(x.pts) && integers(y.pts) {
			bins = 0
		}
		return c.combine(x.pts, y.pts, false, bins)
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
	return acc, nil
}
