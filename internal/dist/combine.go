package dist

import (
	"cmp"
	"math"
	"slices"
)

// The combine kernel computes the distribution of X⊕Y (X+Y or X·Y) for
// independent X ~ a, Y ~ b and rebins it to at most n points. Its output
// is bit-identical to accumulating every product atom a_i⊕b_j into a map
// keyed by value, in row-major (i, j) order, dropping sums whose mass
// underflowed to zero, sorting, and calling Rebin(n) — without the map.
// It has two paths to that output.
//
// The dense path takes integer operands whose results span at most
// latticeMax values: the column sums of CiM arrays with few-bit cells,
// and the slice products of any width up to 8 bits by 8 bits. Every sum
// or product is then an exact integer, so each atom's mass is added into
// a value-indexed array, one window of at most latticeSpan values at a
// time (combineDense). Each slot receives its atoms in (i, j) order, the
// order the map adds them in; the sign of the last zero-valued atom is
// the sign of the map's ±0 key. The positive-mass slots are read out in
// value order and folded as Rebin folds them.
//
// The sort path takes everything else. a and b are sorted, so each row
// a_i⊕b_j is monotone in j (X+Y, or X·Y with a_i ≥ 0; rows with a_i < 0
// are walked backwards), and Rebin's bin index is monotone in the value.
// Every output bin's atoms are therefore one contiguous run per row. The
// kernel walks the non-empty bins in order and gathers each bin's runs in
// (i, j) order; a stable sort by value then lines equal values up in the
// order the map summed them, and the bin is folded exactly as Rebin
// folds it.
//
// A self-convolution (X+Y with a and b one slice, as every doubling in
// SumN is) walks only the half j >= i of the rectangle: atom (i, j) has
// the value and mass bits of its mirror (j, i), as float + and × commute,
// so each off-diagonal atom stands for both. Row i starts at j = i; its
// first atoms 2·a_i still increase with i. After the stable sort, a value
// held by one atom folds to its mass p, or to p+p (the map's 0+p+p) off
// the diagonal. A value held by more is expanded into both mirrors and
// summed in (i, j) order, the value taken from the last, which keeps the
// map's summation order and the sign of its ±0 key.

// latticeMax bounds the magnitude of the integer atoms the dense path
// takes, so that every sum and product of two is an exact float64, and
// the span of its results, which bounds the windows it walks.
// latticeSpan is its window: the accumulator it adds masses into holds
// at most that many values, whatever the span (an 8-bit product spans
// 65,026), so its memory stays small.
const (
	latticeMax  = 1 << 26
	latticeSpan = 4096
)

// term is one product atom a_i⊕b_j with its mass, its sub-bucket in the
// current bin (see sortBin), and its position i<<16 | j, which only the
// half walk of a self-convolution reads: its operands have at most
// maxSelf atoms, so the position orders atoms as (i, j) does.
type term struct {
	v, p float64
	sub  int32
	pos  uint32
}

// maxSelf bounds the operand length of the half walk: longer operands
// take the full walk, as their positions do not fit a term.
const maxSelf = 1 << 16

// combiner is the scratch of one Mul call or of the chain of convolutions
// inside one SumN call. Nothing is retained once that call returns.
type combiner struct {
	cursor []int     // per row of a: index into b of its next unconsumed atom
	nextV  []float64 // per row of a: the value of that atom
	active []int     // rows being walked, in increasing order
	buf    []term    // the current bin's atoms
	spare  []term    // sortBin's scatter target
	pairs  []term    // the mirrors of the half walk's atoms of one value
	counts []int     // sortBin's sub-bucket ends
	exact  []Point   // the distinct sums, while there are at most n
	binned []Point   // the rebinned sums
	dense  []float64 // the dense path's mass per value
	offs   []int     // the dense path's slot offset of each atom of b
}

// grow returns s resliced to length n, growing its capacity
// geometrically when it is short.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// combine returns the distribution of a⊕b (a·b when mul, a+b otherwise)
// rebinned to at most n points; n <= 0 keeps every distinct value.
func (c *combiner) combine(a, b []Point, mul bool, n int) *PMF {
	if first, last, ok := lattice(a, b, mul); ok {
		return c.combineDense(a, b, mul, n, first, last)
	}
	op := func(x, y float64) float64 {
		if mul {
			return x * y
		}
		return x + y
	}
	// backward reports whether row i is walked from the end of b, the
	// rows whose values decrease in j.
	backward := func(i int) bool { return mul && a[i].Value < 0 }
	m := len(b)
	half := halfWalk(a, b, mul)

	lo, hi := support(a, b, mul)
	if lo > hi {
		return &PMF{pts: []Point{}}
	}

	// Rebin passes its input through when it has at most n points or no
	// positive bin width; the kernel then uses a single bin and keeps
	// every distinct value.
	width := 0.0
	if n > 0 {
		width = (hi - lo) / float64(n)
	}
	binning, nb := width > 0, 1
	if binning {
		nb = n
	}
	// binOf is Rebin's bin index, int(pos(v)) clamped to the bins (atoms
	// outside [lo, hi] have no mass); it is monotone in v. upper(k)
	// returns the smallest value in a bin after bin k, +Inf for the last
	// bin, which takes every atom left.
	pos := func(v float64) float64 { return (v - lo) / width }
	binOf := func(v float64) int {
		if !binning {
			return 0
		}
		switch x := pos(v); {
		case !(x > 0):
			return 0
		case x >= float64(nb):
			return nb - 1
		default:
			return int(x)
		}
	}
	loKey, hiKey := orderedKey(lo), orderedKey(hi)
	upper := func(k int) float64 {
		if k == nb-1 {
			return math.Inf(1)
		}
		kf := float64(k + 1)
		above := func(key uint64) bool { return pos(fromOrderedKey(key)) >= kf }
		// The estimate lo+(k+1)·width is usually within an ulp or two of
		// the threshold: step to it. Otherwise bisect [lo, hi], as
		// pos(lo) is 0 and pos(hi) ≈ nb.
		t := min(max(orderedKey(lo+kf*width), loKey), hiKey)
		for range 4 {
			if !above(t) {
				if t == hiKey {
					break
				}
				t++
			} else if t > loKey && above(t-1) {
				t--
			} else {
				return fromOrderedKey(t)
			}
		}
		below, over := loKey, hiKey
		for over-below > 1 {
			if mid := below + (over-below)/2; above(mid) {
				over = mid
			} else {
				below = mid
			}
		}
		return fromOrderedKey(over)
	}

	// Rows join the walk once the bins reach their first atom. For X+Y
	// first atoms increase with i, so rows join in order; for X·Y every
	// row is walked from the start. The half walk starts row i at j = i.
	c.cursor = grow(c.cursor, len(a))
	c.nextV = grow(c.nextV, len(a))
	c.active = c.active[:0]
	minV := math.Inf(1)
	for i, pa := range a {
		j := 0
		if backward(i) {
			j = m - 1
		} else if half {
			j = i
		}
		c.cursor[i] = j
		c.nextV[i] = op(pa.Value, b[j].Value)
		minV = min(minV, c.nextV[i])
		if mul {
			c.active = append(c.active, i)
		}
	}
	pending := len(c.active) // rows before pending have joined

	exact, binned := c.exact[:0], c.binned[:0]
	distinct := 0
	for pending < len(a) || len(c.active) > 0 {
		// Skip straight to the bin of the smallest unconsumed atom.
		k := binOf(minV)
		binHi := upper(k)
		// The last bin takes every atom left. So does a bin that misses
		// the smallest atom, which only sums that overflowed to ±Inf
		// cause; it keeps the walk from stalling.
		last := k == nb-1 || !(minV < binHi)
		inBin := func(v float64) bool { return last || !(v >= binHi) }
		for ; pending < len(a) && inBin(c.nextV[pending]); pending++ {
			c.active = append(c.active, pending)
		}
		minV = math.Inf(1)
		if pending < len(a) {
			minV = c.nextV[pending]
		}
		buf := c.buf[:0]
		kept := c.active[:0]
		for _, i := range c.active {
			if !inBin(c.nextV[i]) {
				kept = append(kept, i)
				minV = min(minV, c.nextV[i])
				continue
			}
			pa, step, start, row := a[i], 1, len(buf), uint32(i)<<16
			if backward(i) {
				step = -1
			}
			for j := c.cursor[i]; j >= 0 && j < m; j += step {
				v := op(pa.Value, b[j].Value)
				if !inBin(v) {
					c.cursor[i], c.nextV[i] = j, v
					kept = append(kept, i)
					minV = min(minV, v)
					break
				}
				// An atom whose mass underflowed changes no sum; it is
				// kept only where it can set the sign of a zero key.
				if p := pa.Prob * b[j].Prob; p > 0 || v == 0 {
					buf = append(buf, term{v: v, p: p, pos: row | uint32(j)})
				}
			}
			if step < 0 {
				slices.Reverse(buf[start:])
			}
		}
		c.active = kept
		c.buf = buf
		buf = c.sortBin(buf, lo+float64(k)*width, min(binHi, hi))

		var mass, moment float64
		for s := 0; s < len(buf); {
			e, p := s, 0.0
			for ; e < len(buf) && buf[e].v == buf[s].v; e++ {
				p += buf[e].p
			}
			// Equal values (+0 and -0) share one map key, which holds
			// the value last added.
			v := buf[e-1].v
			if half {
				switch pos := buf[s].pos; {
				case e-s > 1:
					v, p = c.foldMirrored(buf[s:e])
				case pos>>16 != pos&0xffff:
					p += p // 0+p+p: the atom and its mirror
				}
			}
			s = e
			if !(p > 0) {
				continue
			}
			distinct++
			if !binning || distinct <= n {
				exact = append(exact, Point{Value: v, Prob: p})
			}
			mass += p
			moment += p * v
		}
		if binning && mass > 0 {
			binned = append(binned, Point{Value: moment / mass, Prob: mass})
		}
	}
	c.exact, c.binned = exact, binned

	out := binned
	if !binning || distinct <= n {
		out = exact
	}
	return &PMF{pts: slices.Clone(out)}
}

// halfWalk reports whether the sort path walks half of a⊕b: a
// self-convolution whose positions fit a term.
func halfWalk(a, b []Point, mul bool) bool {
	return !mul && len(a) == len(b) && len(a) > 0 && len(a) <= maxSelf && &a[0] == &b[0]
}

// foldMirrored returns the map's key and mass for one value held by the
// half-walk atoms run, which are in (i, j) order: the run and the mirrors
// (j, i) of its off-diagonal atoms, merged and summed in (i, j) order,
// with the value of the last.
func (c *combiner) foldMirrored(run []term) (v, p float64) {
	// Along one value j falls as i rises, so the mirrors of the run taken
	// backwards are usually in order already.
	mirrors := c.pairs[:0]
	for k := len(run) - 1; k >= 0; k-- {
		if tm := run[k]; tm.pos>>16 != tm.pos&0xffff {
			tm.pos = tm.pos<<16 | tm.pos>>16
			mirrors = append(mirrors, tm)
		}
	}
	c.pairs = mirrors
	byPos := func(x, y term) int { return cmp.Compare(x.pos, y.pos) }
	if !slices.IsSortedFunc(mirrors, byPos) {
		slices.SortFunc(mirrors, byPos)
	}
	for len(run) > 0 || len(mirrors) > 0 {
		var tm term
		if len(mirrors) == 0 || len(run) > 0 && run[0].pos < mirrors[0].pos {
			tm, run = run[0], run[1:]
		} else {
			tm, mirrors = mirrors[0], mirrors[1:]
		}
		v, p = tm.v, p+tm.p
	}
	return v, p
}

// integers reports whether every atom of pts is an integer of magnitude
// at most latticeMax.
func integers(pts []Point) bool {
	for _, pt := range pts {
		if pt.Value != math.Trunc(pt.Value) || math.Abs(pt.Value) > latticeMax {
			return false
		}
	}
	return true
}

// lattice reports whether a⊕b takes the dense path: both operands are
// non-empty and hold integer atoms only, and the results span at most
// latticeMax values, first to last, which bounds the windows the dense
// path walks.
func lattice(a, b []Point, mul bool) (first, last float64, ok bool) {
	if len(a) == 0 || len(b) == 0 || !integers(a) || !integers(b) {
		return 0, 0, false
	}
	a0, a1, b0, b1 := a[0].Value, a[len(a)-1].Value, b[0].Value, b[len(b)-1].Value
	first, last = a0+b0, a1+b1
	if mul {
		// A product's extremes over the rectangle are at its corners.
		first = min(a0*b0, a0*b1, a1*b0, a1*b1)
		last = max(a0*b0, a0*b1, a1*b0, a1*b1)
	}
	return first, last, last-first < latticeMax
}

// apply returns x·y when mul, x+y otherwise.
func apply(x, y float64, mul bool) float64 {
	if mul {
		return x * y
	}
	return x + y
}

// support returns the smallest and largest values of a⊕b among atoms
// with positive mass, lo > hi when there are none: a map accumulator
// drops sums whose mass underflows to zero. b is sorted, so each row's
// extremes are its first and last atoms of positive mass, walked from
// the end of b for a product row with a_i < 0.
func support(a, b []Point, mul bool) (lo, hi float64) {
	m := len(b)
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, pa := range a {
		first, last, step := 0, m-1, 1
		if mul && pa.Value < 0 {
			first, last, step = m-1, 0, -1
		}
		for j := first; j != last+step; j += step {
			if pa.Prob*b[j].Prob > 0 {
				lo = min(lo, apply(pa.Value, b[j].Value, mul))
				break
			}
		}
		for j := last; j != first-step; j -= step {
			if pa.Prob*b[j].Prob > 0 {
				hi = max(hi, apply(pa.Value, b[j].Value, mul))
				break
			}
		}
	}
	return lo, hi
}

// combineDense is combine's dense path for the operands lattice accepts,
// whose results lie in first..last. Every sum or product is an exact
// integer, so each atom's mass is added into the slot of its value, one
// window of at most latticeSpan consecutive values at a time. When one
// window holds every result, the atoms are added in (i, j) order
// (mulRows, addRows). Otherwise each row of a keeps a cursor into b,
// walked in increasing value (from the end of b for a product row with
// a_i < 0), and each window starts at the smallest value no row has
// consumed yet, so windows that would hold no atom are skipped
// (walkWindows). Within a window the rows are walked in increasing i,
// and a row puts at most one atom in a slot — b's values are distinct —
// except a product row with a_i = 0, whose atoms all land in the zero
// slot in increasing j. Either way every slot receives its atoms in
// (i, j) order, the order the map adds them in, and the sign of the last
// zero-valued atom is the sign of the map's ±0 key. A window's
// positive-mass slots are read out in value order and folded as Rebin
// folds them (denseFold).
func (c *combiner) combineDense(a, b []Point, mul bool, n int, first, last float64) *PMF {
	lo, hi := support(a, b, mul)
	if lo > hi {
		return &PMF{pts: []Point{}}
	}
	f := denseFold{n: n, lo: lo, next: math.Inf(-1), exact: c.exact[:0], binned: c.binned[:0]}
	if n > 0 {
		f.width = (hi - lo) / float64(n)
	}
	// The accumulator spans the results, up to one window.
	acc := grow(c.dense, int(min(last-first+1, latticeSpan)))
	clear(acc)
	c.dense = acc
	if n > 0 {
		f.exact = slices.Grow(f.exact, min(n, len(acc)))
	}
	if len(acc) == int(last-first+1) {
		// One window holds every result.
		var negZero bool
		if mul {
			negZero = mulRows(a, b, acc, first)
		} else {
			negZero = c.addRows(a, b, acc)
		}
		zero := 0.0
		if negZero {
			zero = math.Copysign(0, -1)
		}
		f.drain(acc, first, zero)
	} else {
		c.walkWindows(a, b, mul, acc, &f)
	}
	out := f.points()
	c.exact, c.binned = f.exact, f.binned
	return &PMF{pts: slices.Clone(out)}
}

// mulRows adds every atom of a·b into acc, whose slot 0 holds the value
// first and which spans every product, in (i, j) order, and reports
// whether the last zero-valued atom is -0.
func mulRows(a, b []Point, acc []float64, first float64) (negZero bool) {
	for _, pa := range a {
		for _, pb := range b {
			v := pa.Value * pb.Value
			if v == 0 {
				negZero = math.Signbit(v)
			}
			acc[int(v-first)] += pa.Prob * pb.Prob
		}
	}
	return negZero
}

// addRows adds every atom of a+b into acc, whose slot 0 holds the value
// a_0+b_0 and which spans every sum, and reports whether the last
// zero-valued atom in (i, j) order is -0. Row i is the run of slots from
// a_i-a_0, in j order.
func (c *combiner) addRows(a, b []Point, acc []float64) (negZero bool) {
	offs := grow(c.offs, len(b))
	c.offs = offs
	for j, pb := range b {
		offs[j] = int(pb.Value - b[0].Value)
	}
	contiguous := offs[len(offs)-1] == len(offs)-1
	zeroSlot := int(-(a[0].Value + b[0].Value))
	for _, pa := range a {
		start := int(pa.Value - a[0].Value)
		row := acc[start:]
		if contiguous {
			row = row[:len(b)]
			for j, pb := range b {
				row[j] += pa.Prob * pb.Prob
			}
		} else {
			for j, off := range offs {
				row[off] += pa.Prob * b[j].Prob
			}
		}
		// The row's zero-valued atom, if any, is in slot zeroSlot.
		if j, ok := slices.BinarySearch(offs, zeroSlot-start); ok {
			negZero = math.Signbit(pa.Value + b[j].Value)
		}
	}
	return negZero
}

// walkWindows adds the atoms of a⊕b into acc one window of len(acc)
// values at a time, starting each window at the smallest value no row
// has consumed yet, and drains each window into f (see combineDense).
func (c *combiner) walkWindows(a, b []Point, mul bool, acc []float64, f *denseFold) {
	m := len(b)
	c.cursor = grow(c.cursor, len(a))
	c.nextV = grow(c.nextV, len(a))
	active := c.active[:0]
	for i, pa := range a {
		j := 0
		if mul && pa.Value < 0 {
			j = m - 1
		}
		c.cursor[i], c.nextV[i] = j, apply(pa.Value, b[j].Value, mul)
		active = append(active, i)
	}
	// A mass that underflowed to zero adds nothing (masses are never
	// -0), but a zero-valued atom sets the sign of the map's zero key
	// whatever its mass.
	negZero := false
	for len(active) > 0 {
		start := math.Inf(1)
		for _, i := range active {
			start = min(start, c.nextV[i])
		}
		end := start + float64(len(acc))
		top := 0
		kept := active[:0]
		for _, i := range active {
			pa, j, v := a[i], c.cursor[i], c.nextV[i]
			step := 1
			if mul && pa.Value < 0 {
				step = -1
			}
			for v < end {
				k := int(v - start)
				acc[k] += pa.Prob * b[j].Prob
				top = max(top, k)
				if v == 0 {
					negZero = math.Signbit(v)
				}
				if j += step; j < 0 || j == m {
					break
				}
				v = apply(pa.Value, b[j].Value, mul)
			}
			if j >= 0 && j < m {
				c.cursor[i], c.nextV[i] = j, v
				kept = append(kept, i)
			}
		}
		active = kept
		zero := 0.0
		if negZero {
			zero = math.Copysign(0, -1)
		}
		f.drain(acc[:top+1], start, zero)
	}
	c.active = active
}

// denseFold folds the dense path's distinct results, visited in value
// order, as Rebin(n) folds them: while there are at most n, every one is
// kept exact; past n, each is folded into its bin of width (hi-lo)/n,
// where lo and hi are the support's extremes (Rebin's Min and Max).
// Rebin's bin index is monotone in the value, so each bin is one run of
// results.
type denseFold struct {
	n, distinct  int
	lo, width    float64
	next         float64 // the smallest integer past the bin being folded
	mass, moment float64 // of the bin being folded
	exact        []Point
	binned       []Point
}

// drain reads the positive-mass slots of acc, slot k holding the value
// start+k and a zero-valued one the map key zero, into f in value order,
// and clears acc for the next window.
func (f *denseFold) drain(acc []float64, start, zero float64) {
	binning := f.width > 0
	k := 0
	for ; k < len(acc) && (!binning || f.distinct <= f.n); k++ {
		p := acc[k]
		if !(p > 0) {
			continue
		}
		v := start + float64(k)
		if v == 0 {
			v = zero
		}
		if f.distinct++; !binning || f.distinct <= f.n {
			f.exact = append(f.exact, Point{Value: v, Prob: p})
			continue
		}
		// The first result past n: the exact ones are folded before it.
		f.binned = slices.Grow(f.binned, f.n)
		for _, pt := range f.exact {
			f.fold(pt.Value, pt.Prob)
		}
		f.fold(v, p)
	}
	// Past n results only the bins are kept. A slot of zero mass adds
	// nothing to its bin, whose moment is never -0, so every slot is
	// folded without a test on its mass.
	mass, moment := f.mass, f.moment
	for ; k < len(acc); k++ {
		p, v := acc[k], start+float64(k)
		if v >= f.next && p > 0 {
			f.mass, f.moment = mass, moment
			f.open(v)
			mass, moment = 0, 0
		}
		mass += p
		moment += p * v
	}
	f.mass, f.moment = mass, moment
	clear(acc)
}

// fold adds a result of positive mass to its bin, first opening that bin
// when v lies past the one being folded.
func (f *denseFold) fold(v, p float64) {
	if v >= f.next {
		f.open(v)
	}
	f.mass += p
	f.moment += p * v
}

// open appends the bin being folded, if it holds any mass, and starts
// folding v's bin.
func (f *denseFold) open(v float64) {
	if f.mass > 0 {
		f.binned = append(f.binned, Point{Value: f.moment / f.mass, Prob: f.mass})
	}
	f.mass, f.moment = 0, 0
	f.next = f.upper(f.bin(v))
}

// bin is Rebin's bin index of v.
func (f *denseFold) bin(v float64) int {
	return min(int((v-f.lo)/f.width), f.n-1)
}

// upper returns the smallest integer in a bin after bin k, +Inf for the
// last bin. The estimate lo+(k+1)·width is within rounding of it.
func (f *denseFold) upper(k int) float64 {
	if k == f.n-1 {
		return math.Inf(1)
	}
	t := math.Ceil(f.lo + float64(k+1)*f.width)
	for f.bin(t) <= k {
		t++
	}
	for f.bin(t-1) > k {
		t--
	}
	return t
}

// points returns the folded distribution: the exact results, or the bins
// when there were more than n.
func (f *denseFold) points() []Point {
	if f.width > 0 && f.distinct > f.n {
		return append(f.binned, Point{Value: f.moment / f.mass, Prob: f.mass})
	}
	return f.exact
}

// orderedKey maps a float64 to a uint64 whose unsigned order is the
// float order (-0 just below +0); fromOrderedKey inverts it.
func orderedKey(f float64) uint64 {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

func fromOrderedKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// sortBin stably sorts one bin's terms by value. The bin's values lie
// in [lo, hi] (up to zero-mass stragglers), so a counting sort into
// len(buf) equal sub-buckets of that range leaves mostly short runs,
// each finished by sortRun. It returns the sorted terms, which may live
// in either of c's term buffers.
func (c *combiner) sortBin(buf []term, lo, hi float64) []term {
	t := len(buf)
	if t <= 16 || sorted(buf) {
		insertionSort(buf)
		return buf
	}
	tf := float64(t)
	scale := tf / (hi - lo)
	c.counts = grow(c.counts, t+1)
	clear(c.counts)
	for i := range buf {
		// Any sub-bucket index monotone in the value keeps equal values
		// together and orders the rest.
		k := 0
		switch x := (buf[i].v - lo) * scale; {
		case x >= tf:
			k = t - 1
		case x > 0:
			k = int(x)
		}
		buf[i].sub = int32(k)
		c.counts[k+1]++
	}
	for k := 1; k <= t; k++ {
		c.counts[k] += c.counts[k-1]
	}
	out := grow(c.spare, t)
	for _, tm := range buf {
		out[c.counts[tm.sub]] = tm
		c.counts[tm.sub]++
	}
	c.spare, c.buf = buf, out
	start := 0
	for _, end := range c.counts[:t] {
		sortRun(out[start:end], buf[start:end])
		start = end
	}
	return out
}

// sortRun stably sorts a run of terms by value, using tmp (at least as
// long) as scratch: insertion sort for short runs, merge sort otherwise.
// Sub-buckets can still hold long runs, of values that agree to within
// rounding error.
func sortRun(run, tmp []term) {
	const block = 16
	n := len(run)
	if n <= block || sorted(run) {
		insertionSort(run)
		return
	}
	for s := 0; s < n; s += block {
		insertionSort(run[s:min(s+block, n)])
	}
	src, dst := run, tmp[:n]
	for width := block; width < n; width *= 2 {
		for s := 0; s < n; s += 2 * width {
			mid, end := min(s+width, n), min(s+2*width, n)
			merge(dst[s:end], src[s:mid], src[mid:end])
		}
		src, dst = dst, src
	}
	copy(run, src)
}

// merge stably merges the sorted runs x and y into out.
func merge(out, x, y []term) {
	k := 0
	for len(x) > 0 && len(y) > 0 {
		if y[0].v < x[0].v {
			out[k], y = y[0], y[1:]
		} else {
			out[k], x = x[0], x[1:]
		}
		k++
	}
	k += copy(out[k:], x)
	copy(out[k:], y)
}

// sorted reports whether a run of terms is in value order.
func sorted(run []term) bool {
	for i := 1; i < len(run); i++ {
		if run[i].v < run[i-1].v {
			return false
		}
	}
	return true
}

// insertionSort stably sorts a short run of terms by value.
func insertionSort(run []term) {
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j].v < run[j-1].v; j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}
