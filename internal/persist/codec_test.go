package persist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
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

// TestLayerContextDecodeRejectsGarbage: payload-level validation failures
// surface as errors, not panics or half-built values. Payloads of the
// retired JSON layer-context codec are garbage to the columnar decoder.
func TestLayerContextDecodeRejectsGarbage(t *testing.T) {
	for _, payload := range []string{
		"",                 // empty
		"{",                // malformed JSON
		"{}",               // a JSON object, not a columnar payload
		`{"sliced": null}`, // ditto
	} {
		if _, err := DecodeLayerContextColumnar([]byte(payload)); err == nil {
			t.Fatalf("payload %q must fail to decode", payload)
		}
	}
	if _, err := DecodeEngine([]byte(`{"Name": "x"}`)); err == nil {
		t.Fatal("an arch that fails validation must fail to decode")
	}
}
