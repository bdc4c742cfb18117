package cimloop

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestFacadeMacroFlow(t *testing.T) {
	arch, err := Macro("macro-c")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NetworkByName("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, SearchOptions{MaxMappings: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 || res.TOPSPerW() <= 0 || res.GOPS() <= 0 {
		t.Fatalf("invalid results: %+v", res)
	}
}

func TestFacadeMacroConstructors(t *testing.T) {
	builders := []func(MacroConfig) (*Arch, error){MacroBase, MacroA, MacroB, MacroC, MacroD}
	for i, f := range builders {
		a, err := f(MacroConfig{})
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		if a.Name == "" {
			t.Fatalf("builder %d: empty name", i)
		}
	}
	if _, err := Macro("unknown"); err == nil {
		t.Fatal("want error for unknown macro")
	}
}

func TestFacadeSystemScenarios(t *testing.T) {
	macro, err := MacroD(MacroConfig{Rows: 32, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{AllDRAM, WeightStationary, OnChipIO} {
		sys, err := BuildSystem(macro, sc, SystemConfig{Macros: 2})
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if !strings.Contains(sys.Name, "system") {
			t.Fatalf("system name %q", sys.Name)
		}
	}
}

func TestFacadeParseSpec(t *testing.T) {
	spec := `
name: tiny
node_nm: 45
hierarchy:
  - component: buffer
    class: sram-buffer
    temporal_reuse: [Inputs, Weights, Outputs]
  - container: columns
    mesh_x: 8
    spatial_reuse: [Inputs]
    children:
      - component: adc
        class: adc
        no_coalesce: [Outputs]
      - container: rows
        mesh_y: 8
        spatial_reuse: [Outputs]
        children:
          - component: cell
            class: sram-cell
            compute: true
            temporal_reuse: [Weights]
`
	arch, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	net, err := MaxUtilization(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), net.Layers[0], SearchOptions{MaxMappings: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Energy <= 0 || math.IsNaN(r.Energy) {
		t.Fatalf("energy %g", r.Energy)
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	names := Experiments()
	if len(names) < 16 {
		t.Fatalf("expected >=16 experiments, got %d", len(names))
	}
	tables, err := RunExperiment("table3", ExperimentOptions{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("table3 wrong shape: %+v", tables)
	}
}

func TestFacadeBatchServer(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 4, MaxMappings: 2})
	reqs := SweepGrid([]string{"base", "macro-b"}, []string{"toy"}, nil, 0, 2)
	results, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Tag, r.Err)
		}
		if r.EnergyJ <= 0 || r.TOPSPerW <= 0 {
			t.Fatalf("%s: bad metrics %+v", r.Tag, r)
		}
	}
	table := SweepResultsTable(results)
	if !strings.Contains(table.String(), "toy") {
		t.Fatalf("table:\n%s", table.String())
	}
	// A second identical sweep must be served from cache.
	if _, err := srv.SweepCtx(context.Background(), reqs, 0, nil); err != nil {
		t.Fatal(err)
	}
	st := srv.CacheStats()
	if st.Hits == 0 || st.HitRate() <= 0 {
		t.Fatalf("warm sweep did not hit the cache: %+v", st)
	}
	// The facade wires the experiment runner into the service.
	if srv.ExperimentNames == nil || srv.RunExperiment == nil {
		t.Fatal("experiment hooks not wired")
	}
	names := srv.ExperimentNames()
	if len(names) == 0 {
		t.Fatal("no experiments listed")
	}
	tables, err := srv.RunExperiment("table3", true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables from experiment run")
	}
}
