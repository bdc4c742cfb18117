package mapping

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// Conv-shaped workloads exercise the halo tile math end to end.
func TestAnalyzeConvHalos(t *testing.T) {
	levels := testLevels(4, map[tensor.Kind]bool{tensor.Input: true})
	e, err := tensor.Conv2D("c", 1, 4, 2, 4, 4, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "P", Factor: 4}, {Dim: "Q", Factor: 4}, {Dim: "R", Factor: 3}, {Dim: "S", Factor: 3}},
		{{Dim: "K", Factor: 4}},
		{{Dim: "C", Factor: 2}},
		nil,
	}}
	c, err := Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Utilization != 1 {
		t.Fatalf("utilization = %g", c.Utilization)
	}
	// Local input tile = C tile only: 2 channels x 1x1 window = 2.
	iLocal := c.PerLevel[2][tensor.Input]
	if iLocal.Tile != 2 {
		t.Fatalf("local input tile = %d", iLocal.Tile)
	}
	// Weight volume 4*2*3*3 = 72 arrives once at main.
	wMain := c.PerLevel[0][tensor.Weight]
	if wMain.Tile != 72 || wMain.Writes != 72 {
		t.Fatalf("main weights: %+v", wMain)
	}
	// Output volume 4*4*4 = 64 written once at main.
	oMain := c.PerLevel[0][tensor.Output]
	if oMain.Writes != 64 {
		t.Fatalf("main output writes = %d", oMain.Writes)
	}
}

func TestMappedOutside(t *testing.T) {
	levels := testLevels(4, nil)
	e := mm(t, 4, 8, 4)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 4}, {Dim: "C", Factor: 8}},
		{{Dim: "K", Factor: 2}}, // only 2 of 4 mesh instances used
		{{Dim: "K", Factor: 2}},
		nil,
	}}
	c, err := Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1, 2, 2}
	for i, w := range want {
		if c.MappedOutside[i] != w {
			t.Fatalf("MappedOutside[%d] = %d, want %d (%v)", i, c.MappedOutside[i], w, c.MappedOutside)
		}
	}
}

// Weight-stationarity: with spatial reduction dims and only batch loops
// temporal, weights fill exactly once.
func TestWeightStationaryFillsOnce(t *testing.T) {
	levels := []spec.Level{
		{Name: "main", Kind: spec.StorageLevel,
			Keeps: map[tensor.Kind]bool{tensor.Input: true, tensor.Weight: true, tensor.Output: true}},
		{Name: "mesh", Kind: spec.SpatialLevel, Mesh: 32, MeshX: 32, MeshY: 1},
		{Name: "pe", Kind: spec.ComputeLevel,
			Keeps: map[tensor.Kind]bool{tensor.Weight: true}},
	}
	e := mm(t, 64, 8, 4) // M=64 batch, C=8, K=4
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 64}},
		{{Dim: "C", Factor: 8}, {Dim: "K", Factor: 4}},
		nil,
	}}
	c, err := Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	// All 32 weights fill once: M is irrelevant and sits in the free run.
	wPE := c.PerLevel[2][tensor.Weight]
	if wPE.Writes != 32 {
		t.Fatalf("weight fills = %d, want 32 (stationary)", wPE.Writes)
	}
}

// An einsum with only some tensors present (no weights) must not panic.
func TestAnalyzeTwoTensorEinsum(t *testing.T) {
	e := &tensor.Einsum{
		Name: "reduce",
		Dims: []tensor.Dim{{Name: "M", Bound: 4}, {Name: "C", Bound: 8}},
		Spaces: []tensor.DataSpace{
			{Name: "Inputs", Kind: tensor.Input,
				Axes: []tensor.Axis{{{Dim: "M", Coeff: 1}}, {{Dim: "C", Coeff: 1}}}},
			{Name: "Outputs", Kind: tensor.Output,
				Axes: []tensor.Axis{{{Dim: "M", Coeff: 1}}}},
		},
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	levels := testLevels(4, nil)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 4}},
		{{Dim: "C", Factor: 4}},
		{{Dim: "C", Factor: 2}},
		nil,
	}}
	c, err := Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.MACs != 32 {
		t.Fatalf("MACs = %d", c.MACs)
	}
	if c.Has(0, tensor.Weight) {
		t.Fatal("phantom weight counts for weightless einsum")
	}
}

// Factor-1 loops are harmless no-ops.
func TestFactorOneLoops(t *testing.T) {
	levels := testLevels(4, nil)
	e := mm(t, 2, 2, 2)
	m1 := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}, {Dim: "C", Factor: 2}, {Dim: "K", Factor: 2}},
		nil, nil, nil,
	}}
	m2 := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}, {Dim: "K", Factor: 1}, {Dim: "C", Factor: 2}, {Dim: "K", Factor: 2}},
		{{Dim: "M", Factor: 1}},
		{{Dim: "C", Factor: 1}},
		nil,
	}}
	c1, err := Analyze(levels, e, m1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Analyze(levels, e, m2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.MACs != c2.MACs || c1.Cycles != c2.Cycles {
		t.Fatalf("factor-1 loops changed totals: %+v vs %+v", c1, c2)
	}
	for _, tk := range []tensor.Kind{tensor.Input, tensor.Weight, tensor.Output} {
		a := c1.PerLevel[0][tk]
		b := c2.PerLevel[0][tk]
		if a.Reads != b.Reads || a.Writes != b.Writes {
			t.Fatalf("%s: factor-1 loops changed counts: %+v vs %+v", tk, a, b)
		}
	}
}
