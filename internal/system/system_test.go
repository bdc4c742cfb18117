package system

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

func macroD(t *testing.T) *core.Arch {
	t.Helper()
	a, err := macros.D(macros.Config{Rows: 64, Cols: 32})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildAllScenarios(t *testing.T) {
	for _, sc := range []Scenario{AllDRAM, WeightStationary, OnChipIO} {
		sys, err := Build(macroD(t), sc, Config{Macros: 2})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if sys.Levels[0].Class != "dram" {
			t.Fatalf("%s: outermost level %q", sc, sys.Levels[0].Class)
		}
		e, err := core.NewEngine(sys)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		l := workload.Toy().Layers[0]
		r, _, err := e.EvaluateLayerOptsCtx(context.Background(), l, core.SearchOptions{MaxMappings: 6, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if r.Energy <= 0 {
			t.Fatalf("%s: energy %g", sc, r.Energy)
		}
		dram, gb, macro := BreakdownBuckets(r)
		if dram < 0 || gb <= 0 || macro <= 0 {
			t.Fatalf("%s: buckets %g/%g/%g", sc, dram, gb, macro)
		}
	}
}

func TestScenarioOrdering(t *testing.T) {
	// The headline Fig. 15 shape: AllDRAM >> WeightStationary >= OnChipIO
	// in total energy, with DRAM the dominant bucket of AllDRAM.
	l := workload.GPT2().Layers[1] // 1024x768x768 matmul
	energy := map[Scenario]float64{}
	dramShare := map[Scenario]float64{}
	for _, sc := range []Scenario{AllDRAM, WeightStationary, OnChipIO} {
		sys, err := Build(macroD(t), sc, Config{Macros: 4})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(sys)
		if err != nil {
			t.Fatal(err)
		}
		// Scenario studies pin the dataflow: greedy mapping only, so the
		// search cannot undo the scenario's loop order.
		r, _, err := e.EvaluateLayerOptsCtx(context.Background(), l, core.SearchOptions{MaxMappings: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		energy[sc] = r.Energy
		dram, _, _ := BreakdownBuckets(r)
		dramShare[sc] = dram / r.Energy
	}
	if energy[AllDRAM] <= energy[WeightStationary] {
		t.Fatalf("AllDRAM (%g) should exceed WeightStationary (%g)", energy[AllDRAM], energy[WeightStationary])
	}
	if energy[WeightStationary] < energy[OnChipIO] {
		t.Fatalf("OnChipIO (%g) should not exceed WeightStationary (%g)", energy[OnChipIO], energy[WeightStationary])
	}
	if dramShare[AllDRAM] < 0.5 {
		t.Fatalf("AllDRAM should be DRAM-dominated, got %.0f%%", 100*dramShare[AllDRAM])
	}
	if dramShare[OnChipIO] >= dramShare[WeightStationary] {
		t.Fatalf("OnChipIO DRAM share (%.2f) should drop below WeightStationary (%.2f)",
			dramShare[OnChipIO], dramShare[WeightStationary])
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, AllDRAM, Config{}); err == nil {
		t.Error("want error for nil macro")
	}
	if _, err := Build(macroD(t), Scenario(9), Config{}); err == nil {
		t.Error("want error for unknown scenario")
	}
	if _, err := Build(macroD(t), AllDRAM, Config{Macros: -1}); err == nil {
		t.Error("want error for negative macro count")
	}
	bad := macroD(t)
	bad.ClockHz = 0
	if _, err := Build(bad, AllDRAM, Config{}); err == nil {
		t.Error("want error for invalid macro arch")
	}
}

func TestScenarioString(t *testing.T) {
	if AllDRAM.String() == "" || WeightStationary.String() == "" || OnChipIO.String() == "" {
		t.Fatal("scenario names empty")
	}
	if Scenario(9).String() == "" {
		t.Fatal("unknown scenario should render")
	}
}
