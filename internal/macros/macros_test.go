package macros

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func TestAllMacrosBuildAndValidate(t *testing.T) {
	for _, name := range []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := core.NewEngine(a); err != nil {
			t.Errorf("%s: engine: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("want error for unknown macro")
	}
}

func TestTableIIIDefaults(t *testing.T) {
	// Constructors' defaults must line up with the published Table III.
	a, err := A(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Macro A's grouped columns reduce outputs, so they count as part of
	// the reduction fan-in; the physical cell count must still be
	// 768x768.
	rows, cols := archDims(a)
	if rows*cols != 768*768 || a.Node.Nm != 65 {
		t.Errorf("A: %dx%d @%dnm", rows, cols, a.Node.Nm)
	}
	b, err := B(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols = archDims(b)
	if rows != 64 || cols != 64 || b.Node.Nm != 7 || b.InputBits != 4 || b.WeightBits != 4 {
		t.Errorf("B: %dx%d @%dnm %db/%db", rows, cols, b.Node.Nm, b.InputBits, b.WeightBits)
	}
	c, err := C(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols = archDims(c)
	if rows != 256 || cols != 256 || c.Node.Nm != 130 {
		t.Errorf("C: %dx%d @%dnm", rows, cols, c.Node.Nm)
	}
	if c.CellBits != c.WeightBits {
		t.Errorf("C must store analog (full-precision) weights: cell %d weight %d", c.CellBits, c.WeightBits)
	}
	d, err := D(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols = archDims(d)
	if rows != 512 || cols != 128 || d.Node.Nm != 22 || d.InputBits != 8 {
		t.Errorf("D: %dx%d @%dnm %db", rows, cols, d.Node.Nm, d.InputBits)
	}
	if len(TableIII()) != 4 {
		t.Error("TableIII must list four macros")
	}
}

func archDims(a *core.Arch) (rows, cols int) {
	rows, cols = 1, 1
	for i := range a.Levels {
		lv := &a.Levels[i]
		if lv.Kind != spec.SpatialLevel {
			continue
		}
		if lv.SpatialReuse[tensor.Output] {
			rows *= lv.Mesh
		} else {
			cols *= lv.Mesh
		}
	}
	return rows, cols
}

func TestConfigErrors(t *testing.T) {
	if _, err := Base(Config{Rows: -1}); err == nil {
		t.Error("want error for negative rows")
	}
	if _, err := A(Config{GroupCols: 5}); err == nil {
		t.Error("want error for group not dividing columns")
	}
	if _, err := Base(Config{NodeNm: 3}); err == nil {
		t.Error("want error for unsupported node")
	}
}

// Mesh-of-one collapse: GroupCols 1 must still produce a valid arch whose
// slice levels resolve correctly (regression for the hardcoded-index bug).
func TestGroupOfOneCollapses(t *testing.T) {
	b, err := B(Config{Rows: 16, Cols: 16, GroupCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	// group_cols mesh is gone; weight slices must fall back to temporal.
	if b.WeightSliceLevel != -1 {
		t.Fatalf("WeightSliceLevel = %d, want -1 after group collapse", b.WeightSliceLevel)
	}
	eng, err := core.NewEngine(b)
	if err != nil {
		t.Fatal(err)
	}
	n, err := workload.MaxUtilization(16, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), n.Layers[0], core.SearchOptions{MaxMappings: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Utilization < 0.5 {
		t.Fatalf("collapsed-group arch underutilized: %g", r.Utilization)
	}
	// A slice-level name must resolve by name, never by position.
	aArch, err := A(Config{Rows: 12, Cols: 12, GroupCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aArch.InputSliceLevel < 0 {
		t.Fatal("macro A lost its shift_add input-slice level")
	}
	if aArch.Levels[aArch.InputSliceLevel].Name != "shift_add" {
		t.Fatalf("input slice level resolves to %q", aArch.Levels[aArch.InputSliceLevel].Name)
	}
}

// Macro A's grouped columns must NOT share inputs (each member column
// converts its own inputs — the DAC-cost side of the Fig. 3 tradeoff).
func TestMacroAGroupInputUnicast(t *testing.T) {
	a, err := A(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Levels {
		lv := &a.Levels[i]
		if lv.Name == "group_cols" {
			if lv.SpatialReuse[tensor.Input] {
				t.Fatal("group_cols must not multicast inputs")
			}
			if !lv.SpatialReuse[tensor.Output] {
				t.Fatal("group_cols must wire-sum outputs")
			}
			return
		}
	}
	t.Fatal("group_cols level not found")
}

// Macro energy ordering sanity at matched precision and node: the digital
// CiM macro (no ADC) should not beat analog macros by orders of magnitude
// or vice versa — all should land within a plausible band.
func TestMacroEfficienciesPlausible(t *testing.T) {
	for _, name := range []string{"base", "macro-b", "macro-d"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(a)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := archDims(a)
		n, err := workload.MaxUtilization(rows, cols, 64)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), n.Layers[0], core.SearchOptions{MaxMappings: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		eff := r.TOPSPerW()
		if eff < 0.1 || eff > 5000 {
			t.Errorf("%s: %.1f TOPS/W out of plausible band", name, eff)
		}
	}
}

// The paper's conclusion: the same specification models non-CiM
// accelerators. Both "beyond CiM" architectures must build, evaluate, and
// show their signature behaviors.
func TestBeyondCiM(t *testing.T) {
	// Digital accelerator: no analog components anywhere.
	da, err := ByName("digital-accelerator")
	if err != nil {
		t.Fatal(err)
	}
	for i := range da.Levels {
		switch da.Levels[i].Class {
		case "adc", "dac", "analog-adder", "analog-accumulator":
			t.Fatalf("digital accelerator contains analog class %q", da.Levels[i].Class)
		}
	}
	engD, err := core.NewEngine(da)
	if err != nil {
		t.Fatal(err)
	}
	n, err := workload.MaxUtilization(16, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	rd, _, err := engD.EvaluateLayerOptsCtx(context.Background(), n.Layers[0], core.SearchOptions{MaxMappings: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Energy <= 0 || rd.GOPS() <= 0 {
		t.Fatal("digital accelerator evaluation invalid")
	}

	// Photonic: very high clock -> throughput per area should beat the
	// digital accelerator even though TOPS/W may not.
	ph, err := ByName("photonic")
	if err != nil {
		t.Fatal(err)
	}
	engP, err := core.NewEngine(ph)
	if err != nil {
		t.Fatal(err)
	}
	np, err := workload.MaxUtilization(64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := engP.EvaluateLayerOptsCtx(context.Background(), np.Layers[0], core.SearchOptions{MaxMappings: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Energy <= 0 || rp.GOPS() <= 0 {
		t.Fatal("photonic evaluation invalid")
	}
	if rp.GOPS() <= rd.GOPS() {
		t.Fatalf("photonic throughput (%.1f GOPS) should beat the digital array (%.1f GOPS)", rp.GOPS(), rd.GOPS())
	}
}
