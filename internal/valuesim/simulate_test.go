package valuesim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/macros"
	"repro/internal/workload"
)

// oracleMacro is one macro the value-level simulator supports, at a size
// the per-action oracle simulates quickly.
type oracleMacro struct {
	name  string
	build func(macros.Config) (*core.Arch, error)
	cfg   macros.Config
}

var oracleMacros = []oracleMacro{
	{"base", macros.Base, macros.Config{Rows: 64, Cols: 32}},
	{"base-value-aware-adc", macros.Base, macros.Config{Rows: 64, Cols: 32, ValueAwareADC: true}},
	{"a", macros.A, macros.Config{Rows: 64, Cols: 48}},
	{"b", macros.B, macros.Config{Rows: 64, Cols: 32}},
	{"c", macros.C, macros.Config{Rows: 64, Cols: 32}},
	{"d", macros.D, macros.Config{Rows: 64, Cols: 32}},
	{"digital", macros.Digital, macros.Config{Rows: 64, Cols: 32}},
}

// oracleLayers are ResNet18's layers and MobileNetV3's first six (signed
// and unsigned activations, dense and sparse), plus a layer whose inputs
// are all zero: its cells are charged nothing, so they must be missing
// from ByComponent rather than present at zero.
func oracleLayers() []workload.Layer {
	layers := append([]workload.Layer(nil), workload.ResNet18().Layers...)
	layers = append(layers, workload.MobileNetV3Large().Layers[:6]...)
	zero := layers[0]
	zero.Name, zero.Act.Sparsity = "all-zero-inputs", 1
	return append(layers, zero)
}

// checkMatchesOracle runs Simulate and the per-action oracle and fails
// unless every output matches bit for bit.
func checkMatchesOracle(t *testing.T, eng *core.Engine, layer workload.Layer, cfg Config) {
	t.Helper()
	got, gotIn, gotW, err := Simulate(eng, layer, cfg)
	want, wantIn, wantW, oerr := simulateOracle(eng, layer, cfg)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("Simulate error %v, oracle error %v", err, oerr)
	}
	if err != nil {
		if err.Error() != oerr.Error() {
			t.Fatalf("Simulate error %q, oracle error %q", err, oerr)
		}
		return
	}
	if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
		t.Errorf("Energy %v, oracle %v", got.Energy, want.Energy)
	}
	if len(got.ByComponent) != len(want.ByComponent) {
		t.Errorf("ByComponent %v, oracle %v", got.ByComponent, want.ByComponent)
	}
	for name, w := range want.ByComponent {
		if g, ok := got.ByComponent[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("ByComponent[%s] %v (present %v), oracle %v", name, g, ok, w)
		}
	}
	if got.MACs != want.MACs || got.Steps != want.Steps || got.Rows != want.Rows || got.LogicalCols != want.LogicalCols {
		t.Errorf("shape %d MACs %d steps %dx%d, oracle %d MACs %d steps %dx%d",
			got.MACs, got.Steps, got.Rows, got.LogicalCols, want.MACs, want.Steps, want.Rows, want.LogicalCols)
	}
	samePMF(t, "input PMF", gotIn, wantIn)
	samePMF(t, "weight PMF", gotW, wantW)
}

func samePMF(t *testing.T, what string, got, want *dist.PMF) {
	t.Helper()
	g, w := got.Points(), want.Points()
	if len(g) != len(w) {
		t.Errorf("%s has %d points, oracle %d", what, len(g), len(w))
		return
	}
	for i := range g {
		if math.Float64bits(g[i].Value) != math.Float64bits(w[i].Value) || math.Float64bits(g[i].Prob) != math.Float64bits(w[i].Prob) {
			t.Errorf("%s point %d is %v, oracle %v", what, i, g[i], w[i])
			return
		}
	}
}

// Simulate's tabulated energies and per-level sums must reproduce the
// per-action loop exactly, on every macro family and both readout paths.
func TestSimulateMatchesOracle(t *testing.T) {
	layers := oracleLayers()
	for _, m := range oracleMacros {
		eng := smallEngine(t, m.build, m.cfg)
		t.Run(m.name, func(t *testing.T) {
			for _, seed := range []int64{1, 18, 12345} {
				for i, l := range layers {
					t.Run(fmt.Sprintf("%d-%s/seed%d", i, l.Name, seed), func(t *testing.T) {
						checkMatchesOracle(t, eng, l, Config{Steps: 8, Seed: seed})
					})
				}
			}
		})
	}
}

// The oracle comparison must exercise both readout paths: base and B read
// out through the sum lattice; C (analog accumulator) and D (a 4M-wide
// sum range, far more than its MACs) call the models directly. D's 64K
// (input, cell) lattice also exceeds its MACs at Steps 8, which covers
// the direct cell path.
func TestSimulateLatticePaths(t *testing.T) {
	layer := workload.ResNet18().Layers[3]
	want := map[string]struct{ readout, cell bool }{
		"base": {true, true}, "b": {true, true}, "c": {false, true}, "d": {false, false},
	}
	for _, m := range oracleMacros {
		w, ok := want[m.name]
		if !ok {
			continue
		}
		s, err := newSimulation(smallEngine(t, m.build, m.cfg), layer, Config{Steps: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s.adc == nil && s.adcAccum == nil {
			t.Fatalf("%s: no ADC", m.name)
		}
		if got := s.adc != nil && s.adc.e != nil; got != w.readout {
			t.Errorf("%s: readout tabulated %v, want %v", m.name, got, w.readout)
		}
		if got := s.cell.e != nil; got != w.cell {
			t.Errorf("%s: cell energies tabulated %v, want %v", m.name, got, w.cell)
		}
	}
}

// FuzzSimulateMatchesOracle checks Simulate against the per-action loop
// on arbitrary macro sizes, seeds and stream lengths.
func FuzzSimulateMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint8(8), int64(1), uint8(3), uint8(2))
	f.Add(uint8(3), uint8(8), uint8(8), int64(7), uint8(1), uint8(10))
	f.Add(uint8(4), uint8(4), uint8(4), int64(-3), uint8(8), uint8(22))
	layers := oracleLayers()
	f.Fuzz(func(t *testing.T, macro, rows, cols uint8, seed int64, steps, layer uint8) {
		m := oracleMacros[int(macro)%len(oracleMacros)]
		cfg := m.cfg
		cfg.Rows = 1 + int(rows)%64
		cfg.Cols = 1 + int(cols)%64
		arch, err := m.build(cfg)
		if err != nil {
			t.Skip(err)
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			t.Skip(err)
		}
		l := layers[int(layer)%len(layers)]
		checkMatchesOracle(t, eng, l, Config{Steps: 1 + int(steps)%8, Seed: seed})
	})
}

// BenchmarkSimulate measures one simulation per macro family at Rows 64
// over ResNet18's layers 0-3 (ns/op is per layer).
func BenchmarkSimulate(b *testing.B) {
	layers := workload.ResNet18().Layers[:4]
	for _, m := range oracleMacros {
		switch m.name {
		case "base-value-aware-adc", "digital":
			continue
		}
		arch, err := m.build(m.cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := Simulate(eng, layers[i%len(layers)], Config{Steps: 32, Seed: 18}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
