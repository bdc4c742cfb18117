package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// testLevels builds a simple 4-level hierarchy for matmul tests:
// DRAM-like buffer (keeps all) -> spatial mesh -> local buffer (keeps
// inputs+outputs) -> compute (keeps weights).
func testLevels(mesh int, reuse map[tensor.Kind]bool) []spec.Level {
	return []spec.Level{
		{Name: "main", Kind: spec.StorageLevel,
			Keeps: map[tensor.Kind]bool{tensor.Input: true, tensor.Weight: true, tensor.Output: true}},
		{Name: "mesh", Kind: spec.SpatialLevel, Mesh: mesh, MeshX: mesh, MeshY: 1, SpatialReuse: reuse},
		{Name: "local", Kind: spec.StorageLevel,
			Keeps: map[tensor.Kind]bool{tensor.Input: true, tensor.Output: true}},
		{Name: "pe", Kind: spec.ComputeLevel,
			Keeps: map[tensor.Kind]bool{tensor.Weight: true}},
	}
}

func mm(t *testing.T, m, k, n int) *tensor.Einsum {
	t.Helper()
	e, err := tensor.MatMul("mm", m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidateMapping(t *testing.T) {
	levels := testLevels(4, nil)
	e := mm(t, 4, 8, 4)
	good := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 4}, {Dim: "C", Factor: 2}},
		{{Dim: "K", Factor: 4}},
		{{Dim: "C", Factor: 4}},
		nil,
	}}
	if err := Validate(levels, e, good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		m    *Mapping
	}{
		{"nil", nil},
		{"wrong length", &Mapping{LevelLoops: [][]Loop{nil}}},
		{"unknown dim", &Mapping{LevelLoops: [][]Loop{
			{{Dim: "Z", Factor: 4}}, nil, nil, nil}}},
		{"zero factor", &Mapping{LevelLoops: [][]Loop{
			{{Dim: "M", Factor: 0}}, nil, nil, nil}}},
		{"loops on compute", &Mapping{LevelLoops: [][]Loop{
			{{Dim: "M", Factor: 4}, {Dim: "C", Factor: 8}, {Dim: "K", Factor: 4}},
			nil, nil, {{Dim: "C", Factor: 1}}}}},
		{"mesh overflow", &Mapping{LevelLoops: [][]Loop{
			{{Dim: "M", Factor: 4}, {Dim: "C", Factor: 8}},
			{{Dim: "K", Factor: 8}}, nil, nil}}},
		{"undercovered dim", &Mapping{LevelLoops: [][]Loop{
			{{Dim: "M", Factor: 2}, {Dim: "C", Factor: 8}, {Dim: "K", Factor: 4}},
			nil, nil, nil}}},
	}
	for _, c := range cases {
		if err := Validate(levels, e, c.m); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestAnalyzeBasicsWeightStationaryMatmul(t *testing.T) {
	// 4x8x4 matmul on a 4-wide mesh. N across the mesh, K at compute
	// (weights stationary), M temporal at main.
	levels := testLevels(4, map[tensor.Kind]bool{tensor.Input: true})
	e := mm(t, 4, 8, 4)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 4}},
		{{Dim: "K", Factor: 4}},
		{{Dim: "C", Factor: 8}},
		nil,
	}}
	c, err := Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.MACs != 4*8*4 || c.ActualMACs != 4*8*4 || c.Utilization != 1 {
		t.Fatalf("MACs=%d actual=%d util=%g", c.MACs, c.ActualMACs, c.Utilization)
	}
	if c.Cycles != 4*8 {
		t.Fatalf("cycles = %d, want 32", c.Cycles)
	}
	if c.Instances != 4 {
		t.Fatalf("instances = %d", c.Instances)
	}
	// Weights: 32 values total at main, arriving once.
	wMain := c.PerLevel[0][tensor.Weight]
	wPE := c.PerLevel[3][tensor.Weight]
	if wMain.Tile != 32 || wMain.Writes != 32 {
		t.Fatalf("main weights: %+v", wMain)
	}
	// Each PE cell holds one weight at a time (K iterates at local).
	if wPE.Tile != 1 {
		t.Fatalf("pe weight tile = %d", wPE.Tile)
	}
	// Weights are NOT stationary here: K (x8, relevant, breaks the run),
	// N spatial relevant (x4), then M (x4, irrelevant but outside the
	// broken run) refetch: 1*8*4*4 = 128.
	if wMain.Reads != 128 || wPE.Writes != 128 {
		t.Fatalf("weight fills: mainReads=%d peWrites=%d", wMain.Reads, wPE.Writes)
	}
	// Inputs: local keeps inputs; tile at local = K=8 (M,N outside).
	iLocal := c.PerLevel[2][tensor.Input]
	if iLocal.Tile != 8 {
		t.Fatalf("local input tile = %d", iLocal.Tile)
	}
	// Input fills: M relevant temporal outside (x4), N spatial irrelevant
	// but multicast (x1): parent reads = 8*4 = 32 = input volume.
	iMain := c.PerLevel[0][tensor.Input]
	if iMain.Reads != 32 {
		t.Fatalf("main input reads = %d, want 32", iMain.Reads)
	}
	// Each of the 4 instances receives a copy: 32*4 local writes.
	if iLocal.Writes != 128 {
		t.Fatalf("local input writes = %d, want 128", iLocal.Writes)
	}
	// Inputs read from local by compute: every MAC consumes one: 128.
	if iLocal.Reads != 128 {
		t.Fatalf("local input reads = %d, want 128", iLocal.Reads)
	}
	// Outputs: local accumulates; every MAC updates (128 RMW), plus 16
	// drain reads when tiles complete.
	oLocal := c.PerLevel[2][tensor.Output]
	if oLocal.Writes != 128 || oLocal.Reads != 128+16 {
		t.Fatalf("local output: %+v", oLocal)
	}
	// Main receives exactly the output volume (16), written once each.
	oMain := c.PerLevel[0][tensor.Output]
	if oMain.Writes != 16 {
		t.Fatalf("main output writes = %d, want 16", oMain.Writes)
	}
}

func TestAnalyzeUtilizationPadding(t *testing.T) {
	// K=6 mapped with factor 8: padding.
	levels := testLevels(4, nil)
	e := mm(t, 4, 6, 4)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 4}},
		{{Dim: "K", Factor: 4}},
		{{Dim: "C", Factor: 8}},
		nil,
	}}
	c, err := Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.MACs != 128 || c.ActualMACs != 96 {
		t.Fatalf("MACs=%d actual=%d", c.MACs, c.ActualMACs)
	}
	if c.Utilization != 0.75 {
		t.Fatalf("utilization = %g", c.Utilization)
	}
	// Weight storage traffic is scaled to actual data: 6*4=24 values.
	wMain := c.PerLevel[0][tensor.Weight]
	if wMain.Tile != 24 {
		t.Fatalf("padded-scaled weight tile = %d, want 24", wMain.Tile)
	}
}

func TestSpatialReuseCollapsesParentReads(t *testing.T) {
	e := mm(t, 2, 4, 4)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}},
		{{Dim: "K", Factor: 4}},
		{{Dim: "C", Factor: 4}},
		nil,
	}}
	// Without input multicast: each of the 4 instances reads separately.
	noReuse := testLevels(4, nil)
	cNo, err := Analyze(noReuse, e, m)
	if err != nil {
		t.Fatal(err)
	}
	// With input multicast: one read serves all 4.
	withReuse := testLevels(4, map[tensor.Kind]bool{tensor.Input: true})
	cYes, err := Analyze(withReuse, e, m)
	if err != nil {
		t.Fatal(err)
	}
	rNo := cNo.PerLevel[0][tensor.Input].Reads
	rYes := cYes.PerLevel[0][tensor.Input].Reads
	if rNo != 4*rYes {
		t.Fatalf("multicast should cut parent reads 4x: %d vs %d", rNo, rYes)
	}
}

func TestOutputSpatialReductionCollapsesUpdates(t *testing.T) {
	// Map reduction dim K across the mesh. With output spatial reuse
	// (wire summing), local updates collapse by the mesh factor.
	e := mm(t, 2, 4, 2)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}, {Dim: "K", Factor: 2}},
		{{Dim: "C", Factor: 4}},
		nil,
		nil,
	}}
	levelsFor := func(reuse map[tensor.Kind]bool) []spec.Level {
		// Outputs kept at main only, so reduction targets main.
		return []spec.Level{
			{Name: "main", Kind: spec.StorageLevel,
				Keeps: map[tensor.Kind]bool{tensor.Input: true, tensor.Weight: true, tensor.Output: true}},
			{Name: "mesh", Kind: spec.SpatialLevel, Mesh: 4, MeshX: 4, MeshY: 1, SpatialReuse: reuse},
			{Name: "local", Kind: spec.StorageLevel,
				Keeps: map[tensor.Kind]bool{tensor.Input: true}},
			{Name: "pe", Kind: spec.ComputeLevel,
				Keeps: map[tensor.Kind]bool{tensor.Weight: true}},
		}
	}
	cNo, err := Analyze(levelsFor(nil), e, m)
	if err != nil {
		t.Fatal(err)
	}
	cYes, err := Analyze(levelsFor(map[tensor.Kind]bool{tensor.Output: true}), e, m)
	if err != nil {
		t.Fatal(err)
	}
	uNo := cNo.PerLevel[0][tensor.Output].Writes
	uYes := cYes.PerLevel[0][tensor.Output].Writes
	if uNo != 4*uYes {
		t.Fatalf("wire reduction should cut output updates 4x: %d vs %d", uNo, uYes)
	}
}

func TestTransitCrossingsDAC(t *testing.T) {
	// DAC (no-coalesce on inputs) between main and the mesh: every input
	// consumption crosses it (no holder below), collapsed by multicast
	// below only when the spatial loop is input-irrelevant and reused.
	levels := []spec.Level{
		{Name: "main", Kind: spec.StorageLevel,
			Keeps: map[tensor.Kind]bool{tensor.Input: true, tensor.Weight: true, tensor.Output: true}},
		{Name: "dac", Kind: spec.TransitLevel,
			Transits: map[tensor.Kind]bool{tensor.Input: true}, CoalesceT: map[tensor.Kind]bool{}},
		{Name: "mesh", Kind: spec.SpatialLevel, Mesh: 4, MeshX: 4, MeshY: 1,
			SpatialReuse: map[tensor.Kind]bool{tensor.Input: true}},
		{Name: "pe", Kind: spec.ComputeLevel,
			Keeps: map[tensor.Kind]bool{tensor.Weight: true}},
	}
	e := mm(t, 2, 4, 4)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}, {Dim: "C", Factor: 4}},
		nil,
		{{Dim: "K", Factor: 4}},
		nil,
	}}
	c, err := Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	// MACs = 32; N spatial is input-irrelevant and multicast: DAC
	// converts = 32/4 = 8 (each input converted once per use).
	dac := c.PerLevel[1][tensor.Input]
	if dac.Crossings != 8 {
		t.Fatalf("dac crossings = %d, want 8", dac.Crossings)
	}
}

func TestCoalescerReducesADCConvertsAboveIt(t *testing.T) {
	// Analog adder (coalesce outputs) above a spatial level mapping the
	// reduction dim K: crossings above the adder are collapsed, below are
	// not.
	mkLevels := func(withCoalescer bool) []spec.Level {
		adder := spec.Level{Name: "adder", Kind: spec.TransitLevel,
			Transits:  map[tensor.Kind]bool{tensor.Output: true},
			CoalesceT: map[tensor.Kind]bool{},
		}
		if withCoalescer {
			adder.CoalesceT[tensor.Output] = true
		}
		return []spec.Level{
			{Name: "main", Kind: spec.StorageLevel,
				Keeps: map[tensor.Kind]bool{tensor.Input: true, tensor.Weight: true, tensor.Output: true}},
			{Name: "adc", Kind: spec.TransitLevel,
				Transits: map[tensor.Kind]bool{tensor.Output: true}, CoalesceT: map[tensor.Kind]bool{}},
			adder,
			{Name: "mesh", Kind: spec.SpatialLevel, Mesh: 4, MeshX: 4, MeshY: 1},
			{Name: "pe", Kind: spec.ComputeLevel,
				Keeps: map[tensor.Kind]bool{tensor.Weight: true}},
		}
	}
	e := mm(t, 2, 4, 2)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}, {Dim: "K", Factor: 2}},
		nil,
		nil,
		{{Dim: "C", Factor: 4}},
		nil,
	}}
	cYes, err := Analyze(mkLevels(true), e, m)
	if err != nil {
		t.Fatal(err)
	}
	cNo, err := Analyze(mkLevels(false), e, m)
	if err != nil {
		t.Fatal(err)
	}
	// The adder itself consumes all partial sums: MACs = 2*2*4 = 16.
	if got := cYes.PerLevel[2][tensor.Output].Crossings; got != 16 {
		t.Fatalf("adder crossings = %d, want 16", got)
	}
	// ADC above the adder: coalesced 16/4=4 vs uncoalesced 16.
	adcYes := cYes.PerLevel[1][tensor.Output].Crossings
	adcNo := cNo.PerLevel[1][tensor.Output].Crossings
	if adcYes != 4 || adcNo != 16 {
		t.Fatalf("adc crossings = %d (coalesced) / %d (not), want 4/16", adcYes, adcNo)
	}
}

func TestMappingString(t *testing.T) {
	m := &Mapping{LevelLoops: [][]Loop{{{Dim: "M", Factor: 4}}, nil}}
	if s := m.String(); s != "L0[M:4]" {
		t.Fatalf("String() = %q", s)
	}
	empty := &Mapping{LevelLoops: [][]Loop{nil, nil}}
	if s := empty.String(); s != "(empty mapping)" {
		t.Fatalf("empty String() = %q", s)
	}
}

// dimIndex resolves names through their first byte: it must find every
// dimension, also those whose names share a first byte (the sliced
// einsums' _IB and _WB), and reject names that only share a prefix.
func TestDimIndexSharedFirstByte(t *testing.T) {
	e := &tensor.Einsum{
		Name: "shared",
		Dims: []tensor.Dim{{Name: "K", Bound: 2}, {Name: "_IB", Bound: 2}, {Name: "C", Bound: 2},
			{Name: "_WB", Bound: 2}, {Name: "KK", Bound: 2}},
		Spaces: []tensor.DataSpace{
			{Name: "Inputs", Kind: tensor.Input, Axes: []tensor.Axis{{{Dim: "C", Coeff: 1}}, {{Dim: "_IB", Coeff: 1}}}},
			{Name: "Weights", Kind: tensor.Weight, Axes: []tensor.Axis{{{Dim: "C", Coeff: 1}}, {{Dim: "K", Coeff: 1}}, {{Dim: "_WB", Coeff: 1}}}},
			{Name: "Outputs", Kind: tensor.Output, Axes: []tensor.Axis{{{Dim: "K", Coeff: 1}}, {{Dim: "KK", Coeff: 1}}}},
		},
	}
	p, err := NewPlan(testLevels(4, nil), e)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range e.Dims {
		if got := p.dimIndex(d.Name); got != i {
			t.Errorf("dimIndex(%q) = %d, want %d", d.Name, got, i)
		}
	}
	for _, name := range []string{"", "M", "_", "_I", "_IBX", "KKK", "k"} {
		if got := p.dimIndex(name); got != -1 {
			t.Errorf("dimIndex(%q) = %d, want -1", name, got)
		}
	}
}

// The closed-form parentTraffic must match the brute-force oracle across
// permutations that exercise the irrelevant-run rule.
func TestParentTrafficMatchesOracleOnPermutations(t *testing.T) {
	levels := testLevels(2, map[tensor.Kind]bool{tensor.Input: true})
	e := mm(t, 4, 4, 2)
	// All permutations of M, K at the main level with K split.
	perms := [][]Loop{
		{{Dim: "M", Factor: 4}, {Dim: "C", Factor: 2}},
		{{Dim: "C", Factor: 2}, {Dim: "M", Factor: 4}},
		{{Dim: "M", Factor: 2}, {Dim: "C", Factor: 2}, {Dim: "M", Factor: 2}},
		{{Dim: "C", Factor: 2}, {Dim: "M", Factor: 4}, {Dim: "C", Factor: 1}},
	}
	for pi, perm := range perms {
		m := &Mapping{LevelLoops: [][]Loop{
			perm,
			{{Dim: "K", Factor: 2}},
			{{Dim: "C", Factor: 2}},
			nil,
		}}
		for _, tk := range []tensor.Kind{tensor.Input, tensor.Weight, tensor.Output} {
			for h := 0; h < len(levels); h++ {
				if !levels[h].Keeps[tk] {
					continue
				}
				for b := 0; b <= h; b++ {
					want, err := OracleParentTraffic(levels, e, m, tk, h, b)
					if err != nil {
						t.Fatalf("perm %d %s h=%d b=%d: %v", pi, tk, h, b, err)
					}
					got, err := ParentTrafficClosedForm(levels, e, m, tk, h, b)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("perm %d %s h=%d b=%d: closed=%d oracle=%d",
							pi, tk, h, b, got, want)
					}
				}
			}
		}
	}
}

// Randomized mappings: closed form == oracle for every holder/boundary.
func TestParentTrafficMatchesOracleRandomized(t *testing.T) {
	levels := testLevels(4, map[tensor.Kind]bool{tensor.Input: true, tensor.Output: true})
	e := mm(t, 4, 8, 4)
	rng := rand.New(rand.NewSource(11))
	dims := []string{"M", "C", "K"}
	bounds := map[string]int{"M": 4, "C": 8, "K": 4}
	for trial := 0; trial < 60; trial++ {
		// Random split of each dim across main (temporal), mesh
		// (spatial), local (temporal).
		loops := make([][]Loop, 4)
		spatialBudget := 4
		for _, d := range dims {
			b := bounds[d]
			f1 := divisorOf(rng, b)
			rest := b / f1
			f2 := divisorOf(rng, rest)
			f3 := rest / f2
			if f1 > 1 {
				loops[0] = append(loops[0], Loop{Dim: d, Factor: f1})
			}
			if f2 > 1 && spatialBudget/f2 >= 1 && f2 <= spatialBudget {
				loops[1] = append(loops[1], Loop{Dim: d, Factor: f2})
				spatialBudget /= f2
			} else if f2 > 1 {
				loops[2] = append(loops[2], Loop{Dim: d, Factor: f2})
			}
			if f3 > 1 {
				loops[2] = append(loops[2], Loop{Dim: d, Factor: f3})
			}
		}
		// Shuffle within temporal levels to vary permutations.
		rng.Shuffle(len(loops[0]), func(i, j int) { loops[0][i], loops[0][j] = loops[0][j], loops[0][i] })
		rng.Shuffle(len(loops[2]), func(i, j int) { loops[2][i], loops[2][j] = loops[2][j], loops[2][i] })
		m := &Mapping{LevelLoops: loops}
		if err := Validate(levels, e, m); err != nil {
			t.Fatalf("trial %d: invalid mapping %s: %v", trial, m, err)
		}
		for _, tk := range []tensor.Kind{tensor.Input, tensor.Weight, tensor.Output} {
			for h := 0; h < len(levels); h++ {
				if !levels[h].Keeps[tk] {
					continue
				}
				for b := 0; b <= h; b++ {
					want, err := OracleParentTraffic(levels, e, m, tk, h, b)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ParentTrafficClosedForm(levels, e, m, tk, h, b)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("trial %d mapping %s %s h=%d b=%d: closed=%d oracle=%d",
							trial, m, tk, h, b, got, want)
					}
				}
			}
		}
	}
}

func divisorOf(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 1
	}
	var divs []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	return divs[rng.Intn(len(divs))]
}

func TestOracleErrors(t *testing.T) {
	levels := testLevels(2, nil)
	e := mm(t, 2, 2, 2)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}, {Dim: "C", Factor: 2}},
		{{Dim: "K", Factor: 2}},
		nil,
		nil,
	}}
	if _, err := OracleParentTraffic(levels, e, m, tensor.Weight, 1, 0); err == nil {
		t.Error("want error for non-holder level")
	}
	if _, err := OracleParentTraffic(levels, e, m, tensor.Weight, 3, 5); err == nil {
		t.Error("want error for boundary below holder")
	}
	if _, err := ParentTrafficClosedForm(levels, e, m, tensor.Weight, 1, 0); err == nil {
		t.Error("want error for non-holder level in closed form")
	}
}

func TestConsumptionClosedForm(t *testing.T) {
	levels := testLevels(4, map[tensor.Kind]bool{tensor.Input: true})
	e := mm(t, 2, 4, 4)
	m := &Mapping{LevelLoops: [][]Loop{
		{{Dim: "M", Factor: 2}, {Dim: "C", Factor: 4}},
		{{Dim: "K", Factor: 4}},
		nil,
		nil,
	}}
	// Inputs at boundary 2 (inside mesh): MACs=32, N spatial reused and
	// irrelevant is inside boundary 1 but outside boundary 2.
	got, err := ConsumptionClosedForm(levels, e, m, tensor.Input, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("consumption above mesh = %d, want 8", got)
	}
	got, err = ConsumptionClosedForm(levels, e, m, tensor.Input, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("consumption below mesh = %d, want 32", got)
	}
}
