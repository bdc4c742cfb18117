package core_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

// archJSONSeeds returns the built-in macros as JSON (the form a compiled
// engine is persisted in), then edits of the base macro that push its
// numbers out of range: a NaN literal, zero bit widths, zero and huge
// dimensions, and magnitudes that overflow to Inf inside the model.
func archJSONSeeds(t testing.TB) []string {
	var seeds []string
	for _, name := range []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim", "tpu-like", "photonic"} {
		a, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, string(data))
	}
	base := seeds[0]
	for _, edit := range [][2]string{
		{`"Vdd":0,`, `"Vdd":NaN,`},
		{`"InputBits":8`, `"InputBits":0`},
		{`"CellBits":2`, `"CellBits":0`},
		{`"Mesh":128,"MeshX":128`, `"Mesh":9223372036854775807,"MeshX":9223372036854775807`},
		{`"Mesh":128,"MeshX":128`, `"Mesh":0,"MeshX":0`},
		{`"Mesh":128,"MeshX":128`, `"Mesh":-4,"MeshX":-4`},
		{`"capacity_kb":64`, `"capacity_kb":1e308`},
		{`"resolution":8`, `"resolution":1e308`},
		{`"bits":24`, `"bits":-1`},
		{`"Energy":0.6`, `"Energy":1e308`},
		{`"Vdd":0,`, `"Vdd":1e308,`},
		{`"ClockHz":100000000`, `"ClockHz":5e-324`},
		{`"ADCShare":1`, `"ADCShare":1024`},
	} {
		if !strings.Contains(base, edit[0]) {
			t.Fatalf("seed edit %q does not apply to the base macro", edit[0])
		}
		seeds = append(seeds, strings.Replace(base, edit[0], edit[1], 1))
	}
	return seeds
}

// checkArchJSON runs one architecture JSON document through the engine
// boundary: decode, Validate, NewEngine and a toy evaluation. Each stage
// may reject the input with an error; none may panic.
func checkArchJSON(t *testing.T, data string) {
	var arch core.Arch
	if err := json.Unmarshal([]byte(data), &arch); err != nil {
		return
	}
	if err := arch.Validate(); err != nil {
		return
	}
	eng, err := core.NewEngine(&arch)
	if err != nil {
		return
	}
	_, _ = eng.EvaluateNetworkOptsCtx(context.Background(), workload.Toy(), core.SearchOptions{MaxMappings: 2})
}

// FuzzArchJSON: an architecture decoded from JSON must be rejected with
// an error or evaluated, never crash the process.
func FuzzArchJSON(f *testing.F) {
	for _, s := range archJSONSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkArchJSON)
}
