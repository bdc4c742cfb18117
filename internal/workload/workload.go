// Package workload provides the DNN workloads used by the paper's
// evaluation: ResNet18 (the 21 layers of Fig. 6), ViT-Base, MobileNetV3-
// Large, GPT-2, and maximum-utilization matrix-vector workloads, together
// with synthetic operand statistics.
//
// The paper profiles real tensors (ImageNet inputs, Wikipedia text) only to
// obtain per-tensor value distributions (§III-D1). This repo has no dataset
// access, so each layer carries seeded synthetic statistics that reproduce
// the properties the model depends on: layer-to-layer distribution
// variation, ReLU sparsity for CNNs, signed dense activations for
// transformers, and cross-element correlation (which the independence-based
// statistical model cannot capture, and which therefore exercises the
// residual error studied in Fig. 6).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// ActStats describes the value distribution of a layer's input activations
// on a normalized [-1, 1] (signed) or [0, 1] (unsigned) scale.
type ActStats struct {
	Signed   bool    // two-sided values (transformers) vs. post-ReLU
	Sparsity float64 // P(value == 0)
	Mean     float64 // mean of the nonzero mass (normalized scale)
	Std      float64 // std of the nonzero mass (normalized scale)
	Corr     float64 // AR(1) correlation between adjacent elements
}

// WeightStats describes the value distribution of a layer's weights on the
// normalized [-1, 1] scale. Weights are always signed.
type WeightStats struct {
	Std float64 // std of the approximately zero-mean Gaussian weights
}

// Layer is one tensor operation of a network plus its operand statistics.
type Layer struct {
	Name   string
	Op     *tensor.Einsum
	Repeat int // number of identical instances folded into this entry
	Act    ActStats
	Wgt    WeightStats
}

// Network is a named sequence of layers.
type Network struct {
	Name   string
	Layers []Layer
}

// Validate checks that every layer has a valid einsum and sane statistics.
func (n *Network) Validate() error {
	if n.Name == "" {
		return errors.New("workload: network has no name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("workload: network %q has no layers", n.Name)
	}
	for i, l := range n.Layers {
		if l.Op == nil {
			return fmt.Errorf("workload: %s layer %d (%s) has no einsum", n.Name, i, l.Name)
		}
		if err := l.Op.Validate(); err != nil {
			return fmt.Errorf("workload: %s layer %d: %w", n.Name, i, err)
		}
		if l.Repeat <= 0 {
			return fmt.Errorf("workload: %s layer %d has repeat %d", n.Name, i, l.Repeat)
		}
		if l.Act.Sparsity < 0 || l.Act.Sparsity >= 1 {
			return fmt.Errorf("workload: %s layer %d sparsity %g out of [0,1)", n.Name, i, l.Act.Sparsity)
		}
		if l.Act.Std <= 0 || l.Wgt.Std <= 0 {
			return fmt.Errorf("workload: %s layer %d has non-positive std", n.Name, i)
		}
		if l.Act.Corr < 0 || l.Act.Corr >= 1 {
			return fmt.Errorf("workload: %s layer %d correlation %g out of [0,1)", n.Name, i, l.Act.Corr)
		}
	}
	return nil
}

// MACs returns the total multiply-accumulates of the network including
// layer repeats.
func (n *Network) MACs() int64 {
	total := int64(0)
	for _, l := range n.Layers {
		total += l.Op.MACs() * int64(l.Repeat)
	}
	return total
}

// gaussianPMF builds a PMF over the integer levels of a quantized Gaussian.
// Levels span [lo, hi]; the Gaussian has the given mean and std expressed in
// level units. It fails if every level's mass underflows.
func gaussianPMF(lo, hi int, mean, std float64) (*dist.PMF, error) {
	pts := make([]dist.Point, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		d := (float64(v) - mean) / std
		pts = append(pts, dist.Point{Value: float64(v), Prob: math.Exp(-0.5 * d * d)})
	}
	p, err := dist.FromPoints(pts)
	if err != nil {
		return nil, fmt.Errorf("workload: gaussian over [%d, %d], mean %g, std %g: %w", lo, hi, mean, std, err)
	}
	return p, nil
}

// InputPMF returns the PMF of the layer's input activations quantized to
// the given number of bits. Unsigned layers use levels [0, 2^bits-1] with a
// point mass at zero for sparsity; signed layers use [-2^(bits-1),
// 2^(bits-1)-1].
func (l Layer) InputPMF(bits int) (*dist.PMF, error) {
	if bits <= 0 || bits > 16 {
		return nil, fmt.Errorf("workload: input bits %d out of [1,16]", bits)
	}
	full := 1 << uint(bits)
	if l.Act.Signed {
		half := full / 2
		scale := float64(half)
		body, err := gaussianPMF(-half, half-1, l.Act.Mean*scale, l.Act.Std*scale)
		if err != nil || l.Act.Sparsity == 0 {
			return body, err
		}
		return dist.Mix(dist.Delta(0), body, l.Act.Sparsity)
	}
	maxLevel := full - 1
	scale := float64(maxLevel)
	// Nonzero mass: positive truncated Gaussian starting at level 1.
	body, err := gaussianPMF(1, maxLevel, l.Act.Mean*scale, l.Act.Std*scale)
	if err != nil {
		return nil, err
	}
	return dist.Mix(dist.Delta(0), body, l.Act.Sparsity)
}

// WeightPMF returns the PMF of the layer's weights quantized to the given
// number of bits (signed, approximately zero-mean Gaussian).
func (l Layer) WeightPMF(bits int) (*dist.PMF, error) {
	if bits <= 0 || bits > 16 {
		return nil, fmt.Errorf("workload: weight bits %d out of [1,16]", bits)
	}
	half := 1 << uint(bits-1)
	return gaussianPMF(-half, half-1, 0, l.Wgt.Std*float64(half))
}

// OutputPMF returns an approximate PMF of the layer's accumulated outputs
// given the input and weight PMFs: the independence-based synthesis of
// sum_{k} input_k * weight_k over the reduction depth (capped for cost).
func (l Layer) OutputPMF(inputBits, weightBits, depth int) (*dist.PMF, error) {
	in, err := l.InputPMF(inputBits)
	if err != nil {
		return nil, err
	}
	w, err := l.WeightPMF(weightBits)
	if err != nil {
		return nil, err
	}
	if depth <= 0 {
		return nil, fmt.Errorf("workload: output depth %d", depth)
	}
	prod := dist.Mul(in, w, 256)
	return dist.SumN(prod, depth)
}

// SampledOperands is a concrete weight matrix and input-vector sequence for
// the value-level simulator: integer levels at the requested precisions.
type SampledOperands struct {
	// Weights[row][col] is a signed weight level.
	Weights [][]int
	// Inputs[t][row] is the input level supplied to each row at step t.
	Inputs                [][]int
	InputBits, WeightBits int
	Signed                bool
}

// SampleOperands draws a deterministic, seeded set of concrete operands
// matching the layer's statistics. Inputs carry AR(1) correlation Corr
// across rows, which makes true MAC-value distributions deviate from the
// independence assumption — the effect Fig. 6 quantifies.
func (l Layer) SampleOperands(rows, cols, steps, inputBits, weightBits int, seed int64) (*SampledOperands, error) {
	if rows <= 0 || cols <= 0 || steps <= 0 {
		return nil, fmt.Errorf("workload: SampleOperands dims %dx%d steps %d", rows, cols, steps)
	}
	if inputBits <= 0 || inputBits > 16 || weightBits <= 0 || weightBits > 16 {
		return nil, fmt.Errorf("workload: SampleOperands bits %d/%d out of [1,16]", inputBits, weightBits)
	}
	rng := rand.New(rand.NewSource(seed))
	halfW := 1 << uint(weightBits-1)
	weights := make([][]int, rows)
	for r := range weights {
		weights[r] = make([]int, cols)
		for c := range weights[r] {
			v := int(math.Round(rng.NormFloat64() * l.Wgt.Std * float64(halfW)))
			weights[r][c] = clampInt(v, -halfW, halfW-1)
		}
	}
	inputs := make([][]int, steps)
	for t := range inputs {
		inputs[t] = make([]int, rows)
		z := rng.NormFloat64()
		for r := 0; r < rows; r++ {
			// AR(1) latent value: correlated across adjacent rows.
			z = l.Act.Corr*z + math.Sqrt(1-l.Act.Corr*l.Act.Corr)*rng.NormFloat64()
			inputs[t][r] = l.quantizeActivation(z, inputBits, rng)
		}
	}
	return &SampledOperands{
		Weights:    weights,
		Inputs:     inputs,
		InputBits:  inputBits,
		WeightBits: weightBits,
		Signed:     l.Act.Signed,
	}, nil
}

// quantizeActivation converts a standard-normal latent value to an integer
// activation level honoring the layer's signedness, sparsity, and moments.
func (l Layer) quantizeActivation(z float64, bits int, rng *rand.Rand) int {
	full := 1 << uint(bits)
	if l.Act.Signed {
		half := full / 2
		v := int(math.Round((l.Act.Mean + z*l.Act.Std) * float64(half)))
		if l.Act.Sparsity > 0 && rng.Float64() < l.Act.Sparsity {
			return 0
		}
		return clampInt(v, -half, half-1)
	}
	if rng.Float64() < l.Act.Sparsity {
		return 0
	}
	maxLevel := full - 1
	v := int(math.Round((l.Act.Mean + z*l.Act.Std) * float64(maxLevel)))
	return clampInt(v, 1, maxLevel)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
