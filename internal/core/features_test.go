package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

func TestLeakageIncludedAndReported(t *testing.T) {
	a, err := macros.Base(macros.Config{Rows: 32, Cols: 32})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(a)
	if err != nil {
		t.Fatal(err)
	}
	if eng.LeakagePower() <= 0 {
		t.Fatal("buffered architectures must leak")
	}
	n, err := workload.MaxUtilization(32, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), n.Layers[0], core.SearchOptions{MaxMappings: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.LeakageJ <= 0 {
		t.Fatal("leakage energy missing from result")
	}
	if r.LeakageJ >= r.Energy {
		t.Fatalf("leakage %g cannot exceed total %g", r.LeakageJ, r.Energy)
	}
	// Leakage scales with runtime: a slower (bit-serial) config leaks more
	// per layer.
	slow, err := macros.Base(macros.Config{Rows: 32, Cols: 32, DACBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := macros.Base(macros.Config{Rows: 32, Cols: 32, DACBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	leakOf := func(a *core.Arch) float64 {
		e, err := core.NewEngine(a)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := e.EvaluateLayerOptsCtx(context.Background(), n.Layers[0], core.SearchOptions{MaxMappings: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r.LeakageJ
	}
	if leakOf(slow) <= leakOf(fast) {
		t.Fatal("longer runtime must leak more")
	}
}

func TestADCShareTradesThroughputForArea(t *testing.T) {
	n, err := workload.MaxUtilization(32, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	evalShare := func(share int) *core.Result {
		a, err := macros.Base(macros.Config{Rows: 32, Cols: 32, ADCShare: share})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(a)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), n.Layers[0], core.SearchOptions{MaxMappings: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one := evalShare(1)
	eight := evalShare(8)
	if eight.Cycles != 8*one.Cycles {
		t.Fatalf("8-way sharing should serialize 8x: %d vs %d", eight.Cycles, one.Cycles)
	}
	if eight.AreaUm2 >= one.AreaUm2 {
		t.Fatalf("sharing should shrink area: %g vs %g", eight.AreaUm2, one.AreaUm2)
	}
	bad, err := macros.Base(macros.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad.ADCShare = -1
	if _, err := core.NewEngine(bad); err == nil {
		t.Fatal("want error for negative ADC share")
	}
}

func TestDeviceSwapChangesEnergyNotStructure(t *testing.T) {
	n, err := workload.MaxUtilization(32, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	energies := map[string]float64{}
	var levelCount int
	for _, dev := range []string{"reram", "sram", "stt", "edram"} {
		a, err := macros.Base(macros.Config{Rows: 32, Cols: 32, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		if levelCount == 0 {
			levelCount = len(a.Levels)
		} else if len(a.Levels) != levelCount {
			t.Fatalf("%s: device swap changed the hierarchy (%d vs %d levels)", dev, len(a.Levels), levelCount)
		}
		eng, err := core.NewEngine(a)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), n.Layers[0], core.SearchOptions{MaxMappings: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		energies[dev] = r.Energy
	}
	// Devices must actually differ in energy.
	if energies["reram"] == energies["sram"] {
		t.Fatal("device swap had no energy effect")
	}
	if _, err := macros.Base(macros.Config{Device: "pcm"}); err == nil {
		t.Fatal("want error for unknown device")
	}
}
