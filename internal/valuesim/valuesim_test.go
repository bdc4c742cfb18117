package valuesim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/macros"
	"repro/internal/workload"
)

func engineFor(t *testing.T, name string) *core.Engine {
	t.Helper()
	a, err := macros.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(a)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// smallEngine shrinks a macro for fast value-level simulation.
func smallEngine(t *testing.T, build func(macros.Config) (*core.Arch, error), cfg macros.Config) *core.Engine {
	t.Helper()
	a, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(a)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSimulateBasics(t *testing.T) {
	e := smallEngine(t, macros.Base, macros.Config{Rows: 16, Cols: 16})
	layer := workload.ResNet18().Layers[2]
	res, inPMF, wPMF, err := Simulate(e, layer, Config{Steps: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 || math.IsNaN(res.Energy) {
		t.Fatalf("energy = %g", res.Energy)
	}
	// 16 rows x 4 logical cols x 4 weight slices x 8 input slices x 4 steps.
	wantMACs := int64(16) * 4 * 4 * 8 * 4
	if res.MACs != wantMACs {
		t.Fatalf("MACs = %d, want %d", res.MACs, wantMACs)
	}
	if res.Rows != 16 || res.LogicalCols != 4 {
		t.Fatalf("shape = %dx%d", res.Rows, res.LogicalCols)
	}
	if err := inPMF.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := wPMF.Validate(); err != nil {
		t.Fatal(err)
	}
	// Components that must appear.
	for _, name := range []string{"dac", "cell", "adc", "shift_add"} {
		if res.ByComponent[name] <= 0 {
			t.Errorf("component %s has no energy: %v", name, res.ByComponent)
		}
	}
	// Breakdown sums to total.
	sum := 0.0
	for _, v := range res.ByComponent {
		sum += v
	}
	if math.Abs(sum-res.Energy) > 1e-12*res.Energy {
		t.Fatalf("breakdown %g != total %g", sum, res.Energy)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	e := smallEngine(t, macros.Base, macros.Config{Rows: 8, Cols: 8})
	layer := workload.Toy().Layers[0]
	a, _, _, err := Simulate(e, layer, Config{Steps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := Simulate(e, layer, Config{Steps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy {
		t.Fatalf("non-deterministic: %g vs %g", a.Energy, b.Energy)
	}
	c, _, _, err := Simulate(e, layer, Config{Steps: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Energy == a.Energy {
		t.Fatal("different seeds gave identical energy")
	}
}

func TestSimulateErrors(t *testing.T) {
	e := smallEngine(t, macros.Base, macros.Config{Rows: 8, Cols: 8})
	layer := workload.Toy().Layers[0]
	if _, _, _, err := Simulate(e, layer, Config{Steps: 0}); err == nil {
		t.Fatal("want error for zero steps")
	}
}

func TestSimulateAllMacroShapes(t *testing.T) {
	layer := workload.ResNet18().Layers[3]
	cases := []struct {
		name  string
		build func(macros.Config) (*core.Arch, error)
		cfg   macros.Config
	}{
		{"base", macros.Base, macros.Config{Rows: 8, Cols: 8}},
		{"a", macros.A, macros.Config{Rows: 12, Cols: 12, GroupCols: 3}},
		{"b", macros.B, macros.Config{Rows: 8, Cols: 8, GroupCols: 4}},
		{"c", macros.C, macros.Config{Rows: 8, Cols: 8}},
		{"d", macros.D, macros.Config{Rows: 8, Cols: 8}},
		{"digital", macros.Digital, macros.Config{Rows: 8, Cols: 8}},
	}
	for _, c := range cases {
		e := smallEngine(t, c.build, c.cfg)
		res, _, _, err := Simulate(e, layer, Config{Steps: 2, Seed: 3})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res.Energy <= 0 {
			t.Errorf("%s: energy %g", c.name, res.Energy)
		}
	}
}

// The headline accuracy property (Fig. 6): the statistical model with
// per-layer empirical distributions lands close to the value-level ground
// truth, while a fixed global-average-distribution model errs much more.
func TestStatisticalModelTracksGroundTruth(t *testing.T) {
	e := smallEngine(t, macros.Base, macros.Config{Rows: 32, Cols: 16})
	net := workload.ResNet18()
	layers := net.Layers[1:6]
	cfg := Config{Steps: 8, Seed: 11}

	var dvdErrs []float64
	var ins, ws []*dist.PMF
	var cmps []*Comparison
	for _, l := range layers {
		cmp, err := Compare(e, l, cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		dvdErrs = append(dvdErrs, cmp.RelError)
		cmps = append(cmps, cmp)
		ins = append(ins, cmp.InPMF)
		ws = append(ws, cmp.WPMF)
	}
	avgIn, avgW, err := AveragePMFs(ins, ws)
	if err != nil {
		t.Fatal(err)
	}
	var fixedErrs []float64
	for i, l := range layers {
		cmp, err := cmps[i].WithPMFs(e, l, avgIn, avgW)
		if err != nil {
			t.Fatal(err)
		}
		fixedErrs = append(fixedErrs, cmp.RelError)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	dvd, fixed := mean(dvdErrs), mean(fixedErrs)
	t.Logf("data-value-dependent error %.1f%%, fixed-energy error %.1f%%", 100*dvd, 100*fixed)
	if dvd > 0.15 {
		t.Fatalf("statistical model error %.1f%% too high (paper: ~3%%)", 100*dvd)
	}
	if fixed <= dvd {
		t.Fatalf("fixed-energy model (%.1f%%) should err more than data-value-dependent (%.1f%%)", 100*fixed, 100*dvd)
	}
}

func TestCompareActionCountsMatch(t *testing.T) {
	// The two models must agree on DAC action counts exactly: DAC energy
	// is a pure function of the input marginal, so sim and stat DAC
	// energies should match to within PMF arithmetic tolerance.
	e := smallEngine(t, macros.Base, macros.Config{Rows: 16, Cols: 8})
	layer := workload.ResNet18().Layers[4]
	cmp, err := Compare(e, layer, Config{Steps: 8, Seed: 5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc, ok := cmp.PerComponent["dac"]
	if !ok {
		t.Fatalf("no dac in comparison: %v", cmp.PerComponent)
	}
	simE, statE := pc[0], pc[1]
	if simE <= 0 || statE <= 0 {
		t.Fatalf("dac energies: %g, %g", simE, statE)
	}
	rel := math.Abs(simE-statE) / simE
	if rel > 0.01 {
		t.Fatalf("dac energy mismatch %.2f%% (sim %g vs stat %g): action counts disagree", 100*rel, simE, statE)
	}
	// Cells are near-separable, but finite-sample correlation between a
	// row's input activity and its weights leaves a few percent of
	// genuine statistical error — the effect Fig. 6 studies. Bound it.
	pc, ok = cmp.PerComponent["cell"]
	if !ok {
		t.Fatal("no cell in comparison")
	}
	rel = math.Abs(pc[0]-pc[1]) / pc[0]
	if rel > 0.10 {
		t.Fatalf("cell energy mismatch %.2f%% (sim %g vs stat %g)", 100*rel, pc[0], pc[1])
	}
}

func TestAveragePMFsErrors(t *testing.T) {
	if _, _, err := AveragePMFs(nil, nil); err == nil {
		t.Fatal("want error for empty lists")
	}
}

func TestDetectShapeRejectsUnknownClasses(t *testing.T) {
	e := engineFor(t, "base")
	a := e.Arch()
	levels := append(a.Levels[:0:0], a.Levels...)
	levels[1].Class = "exotic"
	if _, err := detectShape(levels); err == nil {
		t.Fatal("want error for unsupported transit class")
	}
}
