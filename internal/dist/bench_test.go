package dist

import (
	"math"
	"slices"
	"testing"
)

// benchPMF returns an n-point PMF shaped like SumN's rebinned
// intermediates: irregular real values under a bell-shaped mass.
func benchPMF(b *testing.B, n int) *PMF {
	pts := make([]Point, n)
	for i := range pts {
		x := float64(i) - float64(n)/2
		pts[i] = Point{Value: float64(i) + 0.25*math.Sin(float64(i)), Prob: math.Exp(-x * x / float64(n*n/16))}
	}
	return mustPoints(b, pts)
}

// BenchmarkConv measures one convolution step of SumN, rebinned to
// convBins points: the self-convolutions SumN's doublings run, which
// take the half walk, and a sum of two distinct operands with the same
// points, which takes the full walk.
func BenchmarkConv(b *testing.B) {
	x256, x512 := benchPMF(b, 256), benchPMF(b, 512)
	y512 := &PMF{pts: slices.Clone(x512.pts)}
	for _, c := range []struct {
		name string
		x, y *PMF
	}{
		{"256x256", x256, x256},
		{"512x512", x512, x512},
		{"512x512-distinct", x512, y512},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var cb combiner
			for i := 0; i < b.N; i++ {
				cb.combine(c.x.pts, c.y.pts, false, convBins)
			}
		})
	}
}

// BenchmarkSumNCapped measures the column-sum synthesis PrepareLayer
// runs per reduction depth: a cell-product PMF summed and capped at 256.
// The integer cells (a 2-bit input times a 4-bit weight, and macro A's
// 1-bit by 1-bit cell) stay on the integers, on the dense path. The
// 1-bit by 8-bit cells are integer products too, multiplied on the dense
// path, but rebinned to 128 points as PrepareLayer rebins them they have
// non-integer support and take the rebinning sort path, whose doublings
// walk half of each self-convolution: macro C's cell with a uniform
// weight, where most sums collide, and with a bell-shaped weight, the
// realistic shape with few collisions.
func BenchmarkSumNCapped(b *testing.B) {
	bit, _ := UniformInts(0, 1)
	in, _ := UniformInts(0, 3)
	w4, _ := UniformInts(0, 15)
	w8, _ := UniformInts(0, 255)
	cell := Mul(in, w4, 512).Rebin(128)
	bitCell := Mul(bit, bit, 512)
	wideCell := Mul(bit, w8, 512).Rebin(128)
	bellCell := Mul(bit, bellInts(b, 0, 255), 512).Rebin(128)
	for _, c := range []struct {
		name  string
		cell  *PMF
		depth int
	}{
		{"depth256", cell, 256},
		{"depth65536", cell, 65536},
		{"bit-cell/depth2304", bitCell, 2304},
		{"rebinned-cell/depth256", wideCell, 256},
		{"gaussian-cell/depth256", bellCell, 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SumNCapped(c.cell, c.depth, 256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMul measures the product of an unsigned and a signed 8-bit
// operand PMF rebinned to 256 points, as workload.OutputPMF runs it: the
// dense path over 16 windows of its 65,026-value span.
func BenchmarkMul(b *testing.B) {
	in, _ := UniformInts(0, 255)
	w, _ := UniformInts(-128, 127)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(in, w, 256)
	}
}

// BenchmarkMix measures a two-component mixture of 256-point PMFs.
func BenchmarkMix(b *testing.B) {
	x, y := benchPMF(b, 256), benchPMF(b, 256).Map(func(v float64) float64 { return v + 0.5 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Mix(x, y, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
