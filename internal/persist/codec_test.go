package persist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

// codecGrid is the property-test grid: every published macro family
// represented in the cache benchmarks x layers with distinct statistics
// (sparse CNN, dense signed transformer).
func codecGrid(t *testing.T) []struct {
	name string
	arch *core.Arch
} {
	t.Helper()
	out := []struct {
		name string
		arch *core.Arch
	}{}
	for _, name := range []string{"base", "macro-b", "macro-d"} {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name string
			arch *core.Arch
		}{name, arch})
	}
	return out
}

// TestEngineCodecRoundTrip: a decoded engine evaluates exactly like the
// original (same area, clock, and per-mapping energies).
func TestEngineCodecRoundTrip(t *testing.T) {
	for _, tc := range codecGrid(t) {
		eng, err := core.NewEngine(tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeEngine(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dec.Area() != eng.Area() || dec.ClockHz() != eng.ClockHz() {
			t.Fatalf("%s: decoded engine area/clock %g/%g, want %g/%g",
				tc.name, dec.Area(), dec.ClockHz(), eng.Area(), eng.ClockHz())
		}
	}
}

// TestLayerContextCodecRoundTrip is the bit-equality property: for every
// (macro, layer) pair, a context that went encode -> decode carries
// bit-identical data (the re-encode is a byte-level fixed point, and
// every per-tensor energy is float-exact) and produces the same
// evaluation results for the same mapping, bit for bit: the evaluator
// sums energies in a fixed level and tensor order.
func TestLayerContextCodecRoundTrip(t *testing.T) {
	layers := []workload.Layer{
		workload.ResNet18().Layers[0], // sparse unsigned CNN layer
		workload.ResNet18().Layers[5], // deeper, different stats
		workload.ViTBase().Layers[0],  // dense signed transformer layer
	}
	for _, tc := range codecGrid(t) {
		eng, err := core.NewEngine(tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range layers {
			ctx, err := eng.PrepareLayer(layer)
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeLayerContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := DecodeLayerContext(data)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, layer.Name, err)
			}
			if restored.LevelCount() != ctx.LevelCount() {
				t.Fatalf("%s/%s: level count %d, want %d",
					tc.name, layer.Name, restored.LevelCount(), ctx.LevelCount())
			}

			m, err := eng.GreedyMapping(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.EvaluateMapping(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.EvaluateMapping(restored, m)
			if err != nil {
				t.Fatalf("%s/%s: evaluating with restored context: %v", tc.name, layer.Name, err)
			}
			if got.Cycles != want.Cycles || got.MACs != want.MACs ||
				got.PaddedMACs != want.PaddedMACs || got.Utilization != want.Utilization ||
				got.DRAMLimited != want.DRAMLimited {
				t.Fatalf("%s/%s: restored context evaluates differently:\n got %+v\nwant %+v",
					tc.name, layer.Name, got, want)
			}
			if got.Energy != want.Energy || got.TimeSec != want.TimeSec ||
				got.LeakageJ != want.LeakageJ {
				t.Fatalf("%s/%s: restored context energy/time diverge:\n got %+v\nwant %+v",
					tc.name, layer.Name, got, want)
			}
			for i := range want.Levels {
				if got.Levels[i].Total != want.Levels[i].Total {
					t.Fatalf("%s/%s level %s: energy %g != %g",
						tc.name, layer.Name, want.Levels[i].Name,
						got.Levels[i].Total, want.Levels[i].Total)
				}
				for k, v := range want.Levels[i].ByTensor {
					if got.Levels[i].ByTensor[k] != v {
						t.Fatalf("%s/%s level %s tensor %v: %g != %g (must be bit-equal)",
							tc.name, layer.Name, want.Levels[i].Name, k,
							got.Levels[i].ByTensor[k], v)
					}
				}
			}

			// A second encode of the restored context is byte-identical:
			// the codec is a fixed point, so repeated restarts never drift.
			data2, err := EncodeLayerContext(restored)
			if err != nil {
				t.Fatal(err)
			}
			if string(data2) != string(data) {
				t.Fatalf("%s/%s: re-encoding a restored context changed the bytes", tc.name, layer.Name)
			}
		}
	}
}

// TestLayerContextDecodeRejectsGarbage: payload-level validation failures
// surface as errors, not panics or half-built contexts.
func TestLayerContextDecodeRejectsGarbage(t *testing.T) {
	for _, payload := range []string{
		"",                   // empty
		"{",                  // malformed JSON
		"{}",                 // no sliced einsum
		`{"sliced": null}`,   // still no einsum
		`{"energies": [{}]}`, // energies without structure
	} {
		if _, err := DecodeLayerContext([]byte(payload)); err == nil {
			t.Fatalf("payload %q must fail to decode", payload)
		}
	}
	if _, err := DecodeEngine([]byte(`{"Name": "x"}`)); err == nil {
		t.Fatal("an arch that fails validation must fail to decode")
	}
}
