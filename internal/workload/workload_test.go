package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestZooNetworksValidate(t *testing.T) {
	names := []string{"resnet18", "vit-base", "mobilenetv3-large", "gpt2", "transformer", "toy"}
	for _, name := range names {
		n, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n.MACs() <= 0 {
			t.Errorf("%s: MACs = %d", name, n.MACs())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("want error for unknown network")
	}
}

func TestResNet18Has21Layers(t *testing.T) {
	n := ResNet18()
	if len(n.Layers) != 21 {
		t.Fatalf("ResNet18 layer count = %d, want 21 (Fig. 6)", len(n.Layers))
	}
	// ~1.8 GMACs for ResNet18 at 224x224.
	macs := n.MACs()
	if macs < 1.6e9 || macs > 2.0e9 {
		t.Fatalf("ResNet18 MACs = %d, want ~1.8e9", macs)
	}
}

func TestGPT2MACs(t *testing.T) {
	// 12 blocks * (qkv + proj + 2 mlp) at seq 1024, dim 768:
	// 12*1024*768*(2304+768+3072+3072) ≈ 87e9.
	macs := GPT2().MACs()
	if macs < 80e9 || macs > 95e9 {
		t.Fatalf("GPT2 MACs = %d, want ~87e9", macs)
	}
}

func TestTransformerShape(t *testing.T) {
	n := Transformer()
	if len(n.Layers) != 6 {
		t.Fatalf("Transformer layer count = %d, want 6 (qkv, qk, av, proj, fc1, fc2)", len(n.Layers))
	}
	// seq 128, dim 256, mlp 1024, 4 heads, 2 blocks:
	//   qkv 2*128*256*768 + (qk+av) 2*8*128*64*128 + proj 2*128*256*256
	//   + fc1/fc2 2*2*128*256*1024 = 218,103,808 exactly.
	if macs := n.MACs(); macs != 218103808 {
		t.Fatalf("Transformer MACs = %d, want 218103808", macs)
	}
	// The attention probability matmul (attn_av) consumes a softmax
	// output: unsigned, sparse, low-magnitude activations.
	var av *Layer
	for i := range n.Layers {
		if n.Layers[i].Name == "attn_av" {
			av = &n.Layers[i]
		}
	}
	if av == nil {
		t.Fatal("Transformer has no attn_av layer")
	}
	if av.Act.Signed || av.Act.Sparsity == 0 {
		t.Fatalf("attn_av activation stats %+v should be unsigned and sparse (softmax output)", av.Act)
	}
}

func TestMaxUtilization(t *testing.T) {
	n, err := MaxUtilization(256, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.MACs() != 256*256*16 {
		t.Fatalf("MACs = %d", n.MACs())
	}
	if _, err := MaxUtilization(0, 1, 1); err == nil {
		t.Fatal("want error for zero rows")
	}
}

func TestInputPMFUnsigned(t *testing.T) {
	l := ResNet18().Layers[3]
	p, err := l.InputPMF(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Min() < 0 || p.Max() > 255 {
		t.Fatalf("unsigned PMF range [%g, %g]", p.Min(), p.Max())
	}
	if got := p.ProbZero(); math.Abs(got-l.Act.Sparsity) > 1e-6 {
		t.Fatalf("sparsity %g, want %g", got, l.Act.Sparsity)
	}
}

func TestInputPMFSigned(t *testing.T) {
	l := GPT2().Layers[0]
	p, err := l.InputPMF(8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Min() >= 0 {
		t.Fatal("signed PMF should include negative levels")
	}
	if p.Min() < -128 || p.Max() > 127 {
		t.Fatalf("signed PMF range [%g, %g]", p.Min(), p.Max())
	}
	if math.Abs(p.Mean()) > 8 {
		t.Fatalf("signed activations should be near zero-mean, got %g", p.Mean())
	}
}

func TestInputPMFBitsErrors(t *testing.T) {
	l := Toy().Layers[0]
	for _, bits := range []int{0, -1, 17} {
		if _, err := l.InputPMF(bits); err == nil {
			t.Errorf("want error for %d input bits", bits)
		}
		if _, err := l.WeightPMF(bits); err == nil {
			t.Errorf("want error for %d weight bits", bits)
		}
	}
}

// TestInputPMFUnderflowIsError: a Gaussian so narrow that every level's
// mass underflows is an error, not a panic, signed or not.
func TestInputPMFUnderflowIsError(t *testing.T) {
	for _, signed := range []bool{false, true} {
		l := Toy().Layers[0]
		l.Act = ActStats{Signed: signed, Sparsity: 0.1, Mean: 0.503, Std: 1e-5}
		if _, err := l.InputPMF(8); err == nil || !strings.Contains(err.Error(), "zero total probability") {
			t.Errorf("signed %v: err = %v, want the underflow's error", signed, err)
		}
	}
}

func TestWeightPMF(t *testing.T) {
	l := Toy().Layers[0]
	p, err := l.WeightPMF(8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Min() < -128 || p.Max() > 127 {
		t.Fatalf("weight range [%g, %g]", p.Min(), p.Max())
	}
	if math.Abs(p.Mean()) > 1 {
		t.Fatalf("weights should be near zero-mean, got %g", p.Mean())
	}
}

func TestOutputPMF(t *testing.T) {
	l := Toy().Layers[0]
	p, err := l.OutputPMF(4, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.OutputPMF(4, 4, 0); err == nil {
		t.Fatal("want error for zero depth")
	}
}

func TestSampleOperandsDeterministic(t *testing.T) {
	l := ResNet18().Layers[2]
	a, err := l.SampleOperands(16, 8, 4, 8, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.SampleOperands(16, 8, 4, 8, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Weights {
		for c := range a.Weights[r] {
			if a.Weights[r][c] != b.Weights[r][c] {
				t.Fatal("weights not deterministic for equal seeds")
			}
		}
	}
	for s := range a.Inputs {
		for r := range a.Inputs[s] {
			if a.Inputs[s][r] != b.Inputs[s][r] {
				t.Fatal("inputs not deterministic for equal seeds")
			}
		}
	}
	c, err := l.SampleOperands(16, 8, 4, 8, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := range a.Inputs {
		for r := range a.Inputs[s] {
			if a.Inputs[s][r] != c.Inputs[s][r] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestSampleOperandsErrors(t *testing.T) {
	l := Toy().Layers[0]
	if _, err := l.SampleOperands(0, 1, 1, 8, 8, 1); err == nil {
		t.Fatal("want error for zero rows")
	}
	if _, err := l.SampleOperands(1, 1, 1, 0, 8, 1); err == nil {
		t.Fatal("want error for zero input bits")
	}
	if _, err := l.SampleOperands(1, 1, 1, 8, 33, 1); err == nil {
		t.Fatal("want error for oversized weight bits")
	}
}

func TestValidateCatchesBadNetworks(t *testing.T) {
	n := Toy()
	n.Layers[0].Repeat = 0
	if err := n.Validate(); err == nil {
		t.Error("want error for zero repeat")
	}
	n = Toy()
	n.Layers[0].Act.Sparsity = 1.0
	if err := n.Validate(); err == nil {
		t.Error("want error for sparsity 1")
	}
	n = Toy()
	n.Layers[0].Wgt.Std = 0
	if err := n.Validate(); err == nil {
		t.Error("want error for zero weight std")
	}
	n = Toy()
	n.Layers[0].Op = nil
	if err := n.Validate(); err == nil {
		t.Error("want error for nil einsum")
	}
	n = Toy()
	n.Name = ""
	if err := n.Validate(); err == nil {
		t.Error("want error for empty name")
	}
	n = &Network{Name: "empty"}
	if err := n.Validate(); err == nil {
		t.Error("want error for no layers")
	}
	n = Toy()
	n.Layers[0].Act.Corr = 1.0
	if err := n.Validate(); err == nil {
		t.Error("want error for correlation 1")
	}
}

// Property: sampled operands always respect precision bounds and the
// empirical sparsity roughly tracks the configured sparsity.
func TestQuickSampleOperandsBounds(t *testing.T) {
	l := ResNet18().Layers[5]
	f := func(seed int64, ib, wb uint8) bool {
		inputBits := int(ib)%8 + 1
		weightBits := int(wb)%8 + 1
		ops, err := l.SampleOperands(32, 16, 8, inputBits, weightBits, seed)
		if err != nil {
			return false
		}
		halfW := 1 << uint(weightBits-1)
		for _, row := range ops.Weights {
			for _, w := range row {
				if w < -halfW || w > halfW-1 {
					return false
				}
			}
		}
		maxIn := 1<<uint(inputBits) - 1
		for _, vec := range ops.Inputs {
			for _, v := range vec {
				if v < 0 || v > maxIn {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampledSparsityTracksConfig(t *testing.T) {
	l := ResNet18().Layers[4]
	ops, err := l.SampleOperands(64, 8, 64, 8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	zeros, total := 0, 0
	for _, vec := range ops.Inputs {
		for _, v := range vec {
			total++
			if v == 0 {
				zeros++
			}
		}
	}
	got := float64(zeros) / float64(total)
	if math.Abs(got-l.Act.Sparsity) > 0.08 {
		t.Fatalf("empirical sparsity %g, configured %g", got, l.Act.Sparsity)
	}
}
