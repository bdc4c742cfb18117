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
}
