package valuesim

import (
	"testing"

	"repro/internal/macros"
	"repro/internal/workload"
)

// Compare must hold on the analog-adder (Macro B) and analog-accumulator
// (Macro C) output paths too, not just the Base topology.
func TestCompareAcrossMacroFamilies(t *testing.T) {
	layer := workload.ResNet18().Layers[2]
	cfg := Config{Steps: 8, Seed: 9}

	bEng := smallEngine(t, macros.B, macros.Config{Rows: 16, Cols: 16, GroupCols: 4})
	cmp, err := Compare(bEng, layer, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.RelError > 0.25 {
		t.Fatalf("macro B statistical error %.1f%% too high", 100*cmp.RelError)
	}
	if _, ok := cmp.PerComponent["analog_adder"]; !ok {
		t.Fatalf("analog adder missing from comparison: %v", cmp.PerComponent)
	}

	cEng := smallEngine(t, macros.C, macros.Config{Rows: 16, Cols: 16})
	cmp, err = Compare(cEng, layer, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.RelError > 0.25 {
		t.Fatalf("macro C statistical error %.1f%% too high", 100*cmp.RelError)
	}
	if _, ok := cmp.PerComponent["analog_accum"]; !ok {
		t.Fatalf("analog accumulator missing from comparison: %v", cmp.PerComponent)
	}
}

// The photonic and plain-digital architectures evaluate through the
// statistical engine; the value simulator rejects the photonic hierarchy
// gracefully rather than mis-simulating it.
func TestSimulateRejectsUnknownTopologies(t *testing.T) {
	eng := smallEngine(t, macros.Photonic, macros.Config{Rows: 8, Cols: 8})
	layer := workload.Toy().Layers[0]
	if _, _, _, err := Simulate(eng, layer, Config{Steps: 2, Seed: 1}); err == nil {
		t.Fatal("want error for unsupported photonic transit classes")
	}
}

// Re-evaluating a comparison with other PMFs must equal a fresh Compare
// with those PMFs as overrides, and keep the empirical PMFs it carries.
func TestWithPMFsMatchesCompareOverride(t *testing.T) {
	eng := smallEngine(t, macros.Base, macros.Config{Rows: 16, Cols: 16})
	net := workload.ResNet18()
	cfg := Config{Steps: 8, Seed: 4}
	first, err := Compare(eng, net.Layers[1], cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Compare(eng, net.Layers[7], cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := first.WithPMFs(eng, net.Layers[1], other.InPMF, other.WPMF)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compare(eng, net.Layers[1], cfg, other.InPMF, other.WPMF)
	if err != nil {
		t.Fatal(err)
	}
	if got.RelError != want.RelError || got.StatEnergy != want.StatEnergy || got.SimEnergy != want.SimEnergy {
		t.Fatalf("WithPMFs %+v, Compare with overrides %+v", got, want)
	}
	if got.RelError == first.RelError {
		t.Fatal("other PMFs left the statistical side unchanged")
	}
	if got.InPMF != first.InPMF || got.WPMF != first.WPMF || want.InPMF.Mean() != first.InPMF.Mean() {
		t.Fatal("comparisons must carry the simulation's empirical PMFs")
	}
}
