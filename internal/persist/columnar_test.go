package persist

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestColumnarCodecRoundTrip is the bit-equality property: for every
// (macro, layer) pair the columnar encode -> decode -> re-encode cycle is
// a byte-level fixed point, and a restored context produces the same
// evaluation results for the same mapping, bit for bit: the evaluator
// sums energies in a fixed level and tensor order.
func TestColumnarCodecRoundTrip(t *testing.T) {
	layers := []workload.Layer{
		workload.ResNet18().Layers[0],
		workload.ResNet18().Layers[5],
		workload.ViTBase().Layers[0],
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
			data, err := EncodeLayerContextColumnar(ctx)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := DecodeLayerContextColumnar(data)
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

			// Fixed point: re-encoding the decoded context reproduces the
			// payload byte for byte (sorted energy kinds, raw float bits).
			data2, err := EncodeLayerContextColumnar(restored)
			if err != nil {
				t.Fatal(err)
			}
			if string(data2) != string(data) {
				t.Fatalf("%s/%s: re-encoding a columnar context changed the bytes", tc.name, layer.Name)
			}
		}
	}
}

// TestColumnarDecodeRejectsGarbage: structural corruption in any section
// surfaces as an error, never a panic or a half-built context.
func TestColumnarDecodeRejectsGarbage(t *testing.T) {
	eng, err := core.NewEngine(codecGrid(t)[0].arch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := eng.PrepareLayer(workload.ResNet18().Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeLayerContextColumnar(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, good[1:]...),
		"huge string": func() []byte { b := append([]byte(nil), good...); b[1] = 0xff; return b }(),
		"trailing":    append(append([]byte(nil), good...), 0),
	}
	// Every truncation point must fail: the reader bounds-checks each
	// section, so a short payload can never yield a context.
	for _, cut := range []int{1, 4, 16, len(good) / 4, len(good) / 2, len(good) - 3} {
		cases[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	for name, payload := range cases {
		if _, err := DecodeLayerContextColumnar(payload); err == nil {
			t.Fatalf("%s: decode accepted corrupt payload", name)
		}
	}
}

// TestColumnarEnvelopeRoundTrip: the new kind travels through the
// envelope, and RecordName keeps columnar records apart from leftover
// files of the retired JSON kind.
func TestColumnarEnvelopeRoundTrip(t *testing.T) {
	eng, err := core.NewEngine(codecGrid(t)[0].arch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := eng.PrepareLayer(workload.ResNet18().Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeLayerContextColumnar(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Kind: KindLayerContextCol, Key: "ctx|a|b", CostSec: 0.25, Payload: payload}
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != KindLayerContextCol || dec.Key != rec.Key || dec.CostSec != rec.CostSec {
		t.Fatalf("decoded record header %+v, want %+v", dec, rec)
	}
	if _, err := DecodeLayerContextColumnar(dec.Payload); err != nil {
		t.Fatal(err)
	}
	if RecordName(KindLayerContextCol, "k") == RecordName(KindLayerContext, "k") {
		t.Fatal("columnar and JSON records of one key must not share a filename")
	}
}
