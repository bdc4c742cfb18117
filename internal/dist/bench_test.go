package dist

import (
	"fmt"
	"math"
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
// convBins points.
func BenchmarkConv(b *testing.B) {
	for _, n := range []int{256, 512} {
		x := benchPMF(b, n)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			var c combiner
			for i := 0; i < b.N; i++ {
				c.combine(x.pts, x.pts, false, convBins)
			}
		})
	}
}

// BenchmarkSumNCapped measures the column-sum synthesis PrepareLayer
// runs per reduction depth: a 128-bin cell-product PMF summed and capped.
func BenchmarkSumNCapped(b *testing.B) {
	in, _ := UniformInts(0, 3)
	w, _ := UniformInts(0, 15)
	cell := Mul(in, w, 512).Rebin(128)
	for _, depth := range []int{256, 65536} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SumNCapped(cell, depth, 256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMul measures the product of an unsigned and a signed 8-bit
// operand PMF rebinned to 256 points, as workload.OutputPMF runs it.
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
