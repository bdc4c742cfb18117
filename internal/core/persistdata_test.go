package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

func preparedContext(t *testing.T) (*core.Engine, *core.LayerContext) {
	t.Helper()
	arch, err := macros.Base(macros.Config{Rows: 32, Cols: 32})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := eng.PrepareLayer(workload.Toy().Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	return eng, ctx
}

// adoptCopy is AdoptLayerContext applied to a copy of d whose slice PMF
// points are copied too, so the context does not share them with d.
func adoptCopy(d *core.LayerContextData) (*core.LayerContext, error) {
	if d == nil {
		return core.AdoptLayerContext(nil)
	}
	c := *d
	c.InputSlicePMF = append(d.InputSlicePMF[:0:0], d.InputSlicePMF...)
	c.WeightSlicePMF = append(d.WeightSlicePMF[:0:0], d.WeightSlicePMF...)
	return core.AdoptLayerContext(&c)
}

func TestLayerContextExportRestore(t *testing.T) {
	eng, ctx := preparedContext(t)
	data := ctx.Export()
	if len(data.Energies) != ctx.LevelCount() {
		t.Fatalf("export has %d energy tables, want %d", len(data.Energies), ctx.LevelCount())
	}
	if data.InputRails <= 0 || data.WeightRails <= 0 {
		t.Fatalf("export rails %d/%d must be positive", data.InputRails, data.WeightRails)
	}
	if len(data.InputSlicePMF) == 0 || len(data.WeightSlicePMF) == 0 {
		t.Fatal("export must carry the slice PMFs")
	}
	restored, err := adoptCopy(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.LevelCount() != ctx.LevelCount() {
		t.Fatalf("restored level count %d, want %d", restored.LevelCount(), ctx.LevelCount())
	}
	// Export of the restored context must carry identical values — the
	// flatten/rebuild pair is lossless.
	rdata := restored.Export()
	for i := range data.Energies {
		for k, want := range data.Energies[i] {
			if got := rdata.Energies[i][k]; got != want {
				t.Fatalf("level %d tensor %v: restored energies %+v, want %+v", i, k, got, want)
			}
		}
	}
	if rdata.InputRails != data.InputRails || rdata.WeightRails != data.WeightRails {
		t.Fatalf("restored rails %d/%d, want %d/%d",
			rdata.InputRails, rdata.WeightRails, data.InputRails, data.WeightRails)
	}
	// A restored context is evaluable with the engine it was prepared on.
	m, err := eng.GreedyMapping(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateMapping(restored, m); err != nil {
		t.Fatalf("restored context must be evaluable: %v", err)
	}
}

func TestRestoreLayerContextValidation(t *testing.T) {
	_, ctx := preparedContext(t)
	if _, err := adoptCopy(nil); err == nil {
		t.Fatal("nil data must fail")
	}
	for _, mutate := range []struct {
		name string
		fn   func(*core.LayerContextData)
	}{
		{"no sliced einsum", func(d *core.LayerContextData) { d.Sliced = nil }},
		{"no layer einsum", func(d *core.LayerContextData) { d.Layer.Op = nil }},
		{"zero input rails", func(d *core.LayerContextData) { d.InputRails = 0 }},
		{"negative weight rails", func(d *core.LayerContextData) { d.WeightRails = -1 }},
		{"no energies", func(d *core.LayerContextData) { d.Energies = nil }},
		{"empty input pmf", func(d *core.LayerContextData) { d.InputSlicePMF = nil }},
		{"unsorted weight pmf", func(d *core.LayerContextData) {
			d.WeightSlicePMF[0], d.WeightSlicePMF[1] = d.WeightSlicePMF[1], d.WeightSlicePMF[0]
		}},
	} {
		data := ctx.Export()
		// Deep-copy the PMF slices so mutations don't alias the live context.
		data.InputSlicePMF = append(data.InputSlicePMF[:0:0], data.InputSlicePMF...)
		data.WeightSlicePMF = append(data.WeightSlicePMF[:0:0], data.WeightSlicePMF...)
		mutate.fn(data)
		if _, err := adoptCopy(data); err == nil {
			t.Fatalf("%s: restore must fail", mutate.name)
		}
	}
}

// TestAdoptLayerContextTakesPoints checks AdoptLayerContext's ownership:
// applied to a copy of the slice PMF points (adoptCopy) it does not share
// the points it was given, while applied to them directly, the decoder's
// form, it takes them as they are; both build the same context.
func TestAdoptLayerContextTakesPoints(t *testing.T) {
	_, ctx := preparedContext(t)
	owned := func() *core.LayerContextData {
		d := ctx.Export()
		d.InputSlicePMF = append(d.InputSlicePMF[:0:0], d.InputSlicePMF...)
		d.WeightSlicePMF = append(d.WeightSlicePMF[:0:0], d.WeightSlicePMF...)
		return d
	}
	d := owned()
	restored, err := adoptCopy(d)
	if err != nil {
		t.Fatal(err)
	}
	if &restored.InputSlicePMF.Points()[0] == &d.InputSlicePMF[0] || &restored.WeightSlicePMF.Points()[0] == &d.WeightSlicePMF[0] {
		t.Fatal("AdoptLayerContext of a copy shares the caller's PMF points")
	}
	d = owned()
	adopted, err := core.AdoptLayerContext(d)
	if err != nil {
		t.Fatal(err)
	}
	if &adopted.InputSlicePMF.Points()[0] != &d.InputSlicePMF[0] || &adopted.WeightSlicePMF.Points()[0] != &d.WeightSlicePMF[0] {
		t.Fatal("AdoptLayerContext copied the PMF points it was handed")
	}
	if !reflect.DeepEqual(adopted, restored) {
		t.Fatal("AdoptLayerContext of the points and of a copy built different contexts")
	}
	bad := owned()
	bad.WeightSlicePMF[0], bad.WeightSlicePMF[1] = bad.WeightSlicePMF[1], bad.WeightSlicePMF[0]
	if _, err := core.AdoptLayerContext(bad); err == nil {
		t.Fatal("AdoptLayerContext accepted an unsorted PMF")
	}
}
