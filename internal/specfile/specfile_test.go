package specfile

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// exampleSpec is the Fig. 5b-style system used across these tests.
const exampleSpec = `
name: custom-macro
node_nm: 45
clock_hz: 100e6
input_bits: 8
weight_bits: 8
dac_bits: 1
cell_bits: 2
hierarchy:
  - component: buffer
    class: sram-buffer
    attrs: {capacity_kb: 64}
    temporal_reuse: [Inputs, Weights, Outputs]
  - component: dac
    class: dac
    no_coalesce: [Inputs]
  - container: columns
    mesh_x: 32
    spatial_reuse: [Inputs]
    children:
      - component: shift_add
        class: shift-add
        attrs: {bits: 24}
        temporal_reuse: [Outputs]
      - component: adc
        class: adc
        attrs: {resolution: 8}
        no_coalesce: [Outputs]
      - container: rows
        mesh_y: 64
        spatial_reuse: [Outputs]
        children:
          - component: cell
            class: reram-cell
            compute: true
            temporal_reuse: [Weights]
mapping:
  spatial_prefs:
    columns: [K]
    rows: [C, R, S]
  inner_dims: [C, R, S]
  weight_slice_level: columns
  input_slice_level: shift_add
`

func TestParseExample(t *testing.T) {
	arch, err := Parse(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Name != "custom-macro" || arch.Node.Nm != 45 {
		t.Fatalf("header wrong: %s %d", arch.Name, arch.Node.Nm)
	}
	if arch.InputBits != 8 || arch.CellBits != 2 {
		t.Fatalf("bits wrong: %d %d", arch.InputBits, arch.CellBits)
	}
	// Flattened: buffer, dac, columns, shift_add, adc, rows, cell.
	if len(arch.Levels) != 7 {
		t.Fatalf("levels = %d: %+v", len(arch.Levels), archLevelNames(arch))
	}
	if arch.Levels[2].Kind != spec.SpatialLevel || arch.Levels[2].Mesh != 32 {
		t.Fatalf("columns level wrong: %+v", arch.Levels[2])
	}
	if !arch.Levels[2].SpatialReuse[tensor.Input] {
		t.Fatal("columns must multicast inputs")
	}
	if arch.WeightSliceLevel != 2 || arch.InputSliceLevel != 3 {
		t.Fatalf("slice levels: %d %d", arch.WeightSliceLevel, arch.InputSliceLevel)
	}
	if got := arch.SpatialPrefs[5]; len(got) != 3 || got[0] != "C" {
		t.Fatalf("rows prefs: %v", got)
	}
}

func TestParsedArchRuns(t *testing.T) {
	arch, err := Parse(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), workload.Toy().Layers[0], core.SearchOptions{MaxMappings: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Energy <= 0 || r.GOPS() <= 0 {
		t.Fatalf("parsed arch evaluation invalid: %+v", r)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		edit func(string) string
	}{
		{"missing name", func(s string) string { return strings.Replace(s, "name: custom-macro", "x: y", 1) }},
		{"bad node", func(s string) string { return strings.Replace(s, "node_nm: 45", "node_nm: 3", 1) }},
		{"no hierarchy", func(s string) string { return strings.Replace(s, "hierarchy:", "hierarchy_x:", 1) }},
		{"unknown tensor", func(s string) string {
			return strings.Replace(s, "[Inputs, Weights, Outputs]", "[Bananas]", 1)
		}},
		{"no compute", func(s string) string { return strings.Replace(s, "compute: true", "compute: false", 1) }},
		{"bad pref level", func(s string) string { return strings.Replace(s, "columns: [K]", "nowhere: [K]", 1) }},
		{"attr not number", func(s string) string {
			return strings.Replace(s, "{capacity_kb: 64}", "{capacity_kb: big}", 1)
		}},
		{"string bits", func(s string) string { return strings.Replace(s, "input_bits: 8", "input_bits: eight", 1) }},
	}
	for _, c := range cases {
		if _, err := Parse(c.edit(exampleSpec)); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestParseRejectsNonMapping(t *testing.T) {
	if _, err := Parse("- 1\n- 2"); err == nil {
		t.Fatal("want error for list document")
	}
	if _, err := Parse("::"); err == nil {
		t.Fatal("want error for junk")
	}
}

func TestContainerNeedsChildren(t *testing.T) {
	bad := `
name: x
node_nm: 45
hierarchy:
  - container: empty
    mesh_x: 2
`
	if _, err := Parse(bad); err == nil {
		t.Fatal("want error for container without children")
	}
}

func archLevelNames(a *core.Arch) []string {
	out := make([]string, len(a.Levels))
	for i := range a.Levels {
		out[i] = a.Levels[i].Name
	}
	return out
}
