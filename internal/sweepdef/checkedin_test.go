package sweepdef_test

import (
	"context"
	"fmt"
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
// mapping search is deterministic at a fixed seed, so drift
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

// checkedInLayers caps the layers TestCheckedInSweepInvariants evaluates
// per network, which keeps every checked-in grid to seconds.
const checkedInLayers = 3

// TestCheckedInSweepInvariants runs every checked-in definition at its
// defaults, capped to the leading layers of each network, and checks the
// conservation and sanity invariants of every layer result: the layer
// energy is the sum of its level totals (which include leakage), every
// energy is finite and non-negative, the hardware runs at least the
// workload's MACs, and the utilization lies in (0, 1].
func TestCheckedInSweepInvariants(t *testing.T) {
	set := loadCheckedIn(t)
	srv := serve.NewServer(serve.BatchOptions{})
	for _, def := range set.All() {
		reqs, err := def.Compile(nil)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		for i := range reqs {
			if reqs[i].Layers == 0 || reqs[i].Layers > checkedInLayers {
				reqs[i].Layers = checkedInLayers
			}
		}
		results, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		for _, r := range results {
			if r.Err != "" {
				t.Fatalf("%s %s: %s", def.Name, r.Tag, r.Err)
			}
			if len(r.NetworkResult.PerLayer) == 0 {
				t.Fatalf("%s %s: no layer results", def.Name, r.Tag)
			}
			for _, lr := range r.NetworkResult.PerLayer {
				what := fmt.Sprintf("%s %s layer %s", def.Name, r.Tag, lr.Layer)
				sum := 0.0
				for _, lv := range lr.Levels {
					checkEnergy(t, what+" level "+lv.Name, lv.Total)
					for k, e := range lv.ByTensor {
						checkEnergy(t, fmt.Sprintf("%s level %s tensor %v", what, lv.Name, k), e)
					}
					sum += lv.Total
				}
				checkEnergy(t, what, lr.Energy)
				checkEnergy(t, what+" leakage", lr.LeakageJ)
				// Leakage is part of the level totals, so it is counted once.
				if lr.Energy != sum || lr.LeakageJ > lr.Energy {
					t.Errorf("%s: energy %g, level totals sum to %g, leakage %g", what, lr.Energy, sum, lr.LeakageJ)
				}
				if lr.PaddedMACs < lr.MACs {
					t.Errorf("%s: %d padded MACs below the workload's %d", what, lr.PaddedMACs, lr.MACs)
				}
				if !(lr.Utilization > 0 && lr.Utilization <= 1) {
					t.Errorf("%s: utilization %g outside (0, 1]", what, lr.Utilization)
				}
			}
		}
	}
}

// checkEnergy fails the test unless e is a finite, non-negative energy.
func checkEnergy(t *testing.T, what string, e float64) {
	t.Helper()
	if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
		t.Errorf("%s: energy %g is not finite and non-negative", what, e)
	}
}
