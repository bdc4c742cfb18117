package sweepdef_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/serve"
	"repro/internal/sweepdef"
)

// loadCheckedIn loads the repository's sweeps/ directory; the test file
// lives two levels below the repo root.
func loadCheckedIn(t *testing.T) *sweepdef.Set {
	t.Helper()
	set, err := sweepdef.LoadDir("../../sweeps")
	if err != nil {
		t.Fatalf("LoadDir(sweeps/): %v", err)
	}
	return set
}

func TestCheckedInDefinitionsValidate(t *testing.T) {
	set := loadCheckedIn(t)
	want := []string{
		"beyond-cmos", "fig15-scenarios", "mapping-budget-scaling",
		"photonic-transformer", "quick-smoke", "table-iii-macros",
	}
	names := set.Names()
	if len(names) < len(want) {
		t.Fatalf("sweeps/ holds %d definitions %v, want at least %v", len(names), names, want)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("sweeps/ is missing definition %q", n)
		}
	}
	for _, def := range set.All() {
		if _, err := def.Compile(nil); err != nil {
			t.Errorf("%s: compile at defaults: %v", def.Name, err)
		}
	}
}

// pin asserts a metric against a recorded value within a 1% band: the
// mapping search is deterministic at fixed (seed, shards), so drift
// means the energy/timing models or the definitions changed.
func pin(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 0.01*math.Abs(want) {
		t.Errorf("%s = %.6g, want %.6g (±1%%)", what, got, want)
	}
}

// TestPhotonicTransformerPinned runs the checked-in photonic-transformer
// definition — the beyond-CMOS MZI-mesh macro (internal/macros/beyond.go,
// internal/circuits/photonic.go) on the transformer attention block —
// and pins the resulting efficiency numbers.
func TestPhotonicTransformerPinned(t *testing.T) {
	set := loadCheckedIn(t)
	def, ok := set.Get("photonic-transformer")
	if !ok {
		t.Fatal("no photonic-transformer definition")
	}
	reqs, err := def.Compile(map[string]any{"mappings": 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.BatchOptions{})
	results, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (dram, weight-stationary)", len(results))
	}
	byTag := map[string]float64{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Tag, r.Err)
		}
		byTag[r.Tag] = r.EnergyPerMACpJ
	}
	// Keeping weights resident cuts the photonic system's energy/MAC by
	// ~7x on this attention block: modulation and DRAM traffic dominate
	// the all-tensors-from-dram scenario.
	pin(t, "photonic dram energy/MAC (pJ)",
		byTag["system(photonic,all-tensors-from-dram)/transformer"], 14.42)
	pin(t, "photonic weight-stationary energy/MAC (pJ)",
		byTag["system(photonic,weight-stationary)/transformer"], 1.969)
}

// TestBeyondCMOSPinned runs the checked-in beyond-cmos definition on the
// toy workload and pins the three architecture classes' efficiency —
// and their ordering: photonic beats the TPU-like digital array on this
// workload, and both beat the digital CiM macro.
func TestBeyondCMOSPinned(t *testing.T) {
	set := loadCheckedIn(t)
	def, ok := set.Get("beyond-cmos")
	if !ok {
		t.Fatal("no beyond-cmos definition")
	}
	reqs, err := def.Compile(map[string]any{"network": "toy", "mappings": 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.BatchOptions{})
	results, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	eff := map[string]float64{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Tag, r.Err)
		}
		eff[r.Arch] = r.TOPSPerW
	}
	pin(t, "photonic TOPS/W", eff["photonic"], 1.510)
	pin(t, "digital-accelerator TOPS/W", eff["digital-accelerator"], 1.335)
	pin(t, "digital-cim TOPS/W", eff["digital-cim"], 0.2008)
	if !(eff["photonic"] > eff["digital-accelerator"] && eff["digital-accelerator"] > eff["digital-cim"]) {
		t.Errorf("efficiency ordering photonic > tpu-like > digital-cim violated: %v", eff)
	}
}
