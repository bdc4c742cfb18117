package circuits

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/tech"
)

func params(t *testing.T, nm int) Params {
	t.Helper()
	n, err := tech.ByNm(nm)
	if err != nil {
		t.Fatal(err)
	}
	return Params{Node: n}
}

// allModels constructs one of every model for generic conformance tests.
func allModels(t *testing.T) []Model {
	t.Helper()
	p := params(t, 65)
	adc, err := NewADC(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	adcVA, err := NewADC(p, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	dacA, err := NewDAC(p, DACCapacitive, 8)
	if err != nil {
		t.Fatal(err)
	}
	dacB, err := NewDAC(p, DACResistive, 8)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewReRAMCell(p, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSRAMComputeCell(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2c, err := NewC2CMac(p, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	aa, err := NewAnalogAdder(p, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := NewAnalogAccumulator(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	da, err := NewDigitalAdder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegister(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := NewMultiplexer(p, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewDigitalMAC(p, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewShiftAdd(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewRowDriver(p, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSenseAmp(p)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWire(p, 8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return []Model{adc, adcVA, dacA, dacB, rr, sr, c2c, aa, ac, da, reg, mux, dm, sa, rd, se, w}
}

func TestAllModelsBasicContract(t *testing.T) {
	for _, m := range allModels(t) {
		if m.Name() == "" {
			t.Errorf("%T has empty name", m)
		}
		if m.Area() <= 0 {
			t.Errorf("%s area = %g", m.Name(), m.Area())
		}
		e := m.EnergyAt(10, 10, 10)
		if e < 0 || math.IsNaN(e) || math.IsInf(e, 0) {
			t.Errorf("%s EnergyAt = %g", m.Name(), e)
		}
		me, err := m.MeanEnergy(Operands{})
		if err != nil {
			t.Errorf("%s MeanEnergy(empty): %v", m.Name(), err)
		}
		if me < 0 || math.IsNaN(me) {
			t.Errorf("%s MeanEnergy = %g", m.Name(), me)
		}
	}
}

// MeanEnergy on delta PMFs must equal EnergyAt on the same concrete values:
// the statistical and value-level views agree pointwise.
func TestMeanEnergyMatchesEnergyAtOnDeltas(t *testing.T) {
	for _, m := range allModels(t) {
		for _, v := range []float64{0, 1, 7, 100} {
			ops := Operands{Input: dist.Delta(v), Weight: dist.Delta(v), Output: dist.Delta(v)}
			me, err := m.MeanEnergy(ops)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			ea := m.EnergyAt(v, v, v)
			if math.Abs(me-ea) > 1e-9*math.Max(me, ea)+1e-30 {
				t.Errorf("%s at v=%g: MeanEnergy=%g EnergyAt=%g", m.Name(), v, me, ea)
			}
		}
	}
}

// For separable models, MeanEnergy over a PMF must equal the probability-
// weighted average of EnergyAt.
func TestMeanEnergyIsExpectationForValueDependentModels(t *testing.T) {
	p := params(t, 65)
	in, _ := dist.UniformInts(0, 255)
	w, _ := dist.UniformInts(0, 255)

	dac, _ := NewDAC(p, DACCapacitive, 8)
	want := 0.0
	for _, pt := range in.Points() {
		want += pt.Prob * dac.EnergyAt(pt.Value, 0, 0)
	}
	got, err := dac.MeanEnergy(Operands{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("DAC: MeanEnergy=%g, expectation=%g", got, want)
	}

	rr, _ := NewReRAMCell(p, 8, 8)
	want = 0.0
	for _, pi := range in.Points() {
		for _, pw := range w.Points() {
			want += pi.Prob * pw.Prob * rr.EnergyAt(pi.Value, pw.Value, 0)
		}
	}
	got, err = rr.MeanEnergy(Operands{Input: in, Weight: w})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("ReRAM: MeanEnergy=%g, expectation=%g", got, want)
	}
}

func TestADC(t *testing.T) {
	p := params(t, 65)
	a8, _ := NewADC(p, 8, false)
	a4, _ := NewADC(p, 4, false)
	if a8.EnergyAt(0, 0, 0) <= a4.EnergyAt(0, 0, 0) {
		t.Error("8b ADC must cost more than 4b")
	}
	if a8.Area() <= a4.Area() {
		t.Error("8b ADC must be larger than 4b")
	}
	if a8.Bits() != 8 {
		t.Errorf("Bits() = %d", a8.Bits())
	}
	va, _ := NewADC(p, 8, true)
	if va.EnergyAt(0, 0, 10) >= va.EnergyAt(0, 0, 250) {
		t.Error("value-aware ADC should be cheaper for small codes")
	}
	if va.EnergyAt(0, 0, -250) != va.EnergyAt(0, 0, 250) {
		t.Error("value-aware ADC should use magnitude")
	}
	if _, err := NewADC(p, 0, false); err == nil {
		t.Error("want error for 0-bit ADC")
	}
	if _, err := NewADC(p, 15, false); err == nil {
		t.Error("want error for 15-bit ADC")
	}
	if _, err := NewADC(Params{}, 8, false); err == nil {
		t.Error("want error for missing node")
	}
}

func TestDACValueDependenceAndGating(t *testing.T) {
	p := params(t, 65)
	a, _ := NewDAC(p, DACCapacitive, 8)
	b, _ := NewDAC(p, DACResistive, 8)
	if a.Name() != "dac-capacitive" || b.Name() != "dac-resistive" {
		t.Fatalf("names: %s, %s", a.Name(), b.Name())
	}
	// Capacitive: linear in code. Resistive: quadratic plus fixed burn.
	smallA, largeA := a.EnergyAt(16, 0, 0), a.EnergyAt(240, 0, 0)
	if largeA <= smallA {
		t.Error("capacitive DAC energy must grow with code")
	}
	// For the resistive DAC, small codes are dominated by the fixed term.
	smallB, largeB := b.EnergyAt(16, 0, 0), b.EnergyAt(240, 0, 0)
	if largeB <= smallB {
		t.Error("resistive DAC energy must grow with code")
	}
	ratioA := largeA / smallA
	ratioB := largeB / smallB
	if ratioA <= ratioB {
		t.Errorf("capacitive DAC should be more value-sensitive at low codes: %g vs %g", ratioA, ratioB)
	}
	// Zero gating.
	if g := a.EnergyAt(0, 0, 0); g >= a.EnergyAt(1, 0, 0) {
		t.Errorf("zero convert should be gated: %g", g)
	}
	if _, err := NewDAC(p, DACKind(9), 8); err == nil {
		t.Error("want error for unknown DAC kind")
	}
	if _, err := NewDAC(p, DACCapacitive, 0); err == nil {
		t.Error("want error for 0-bit DAC")
	}
	if a.Bits() != 8 {
		t.Errorf("Bits() = %d", a.Bits())
	}
}

func TestReRAMCell(t *testing.T) {
	p := params(t, 130)
	r, err := NewReRAMCell(p, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conductance(0) >= r.Conductance(255) {
		t.Error("conductance must grow with weight level")
	}
	if r.Conductance(-255) != r.Conductance(255) {
		t.Error("conductance uses magnitude")
	}
	// Energy quadratic in input voltage: 2x input -> 4x energy.
	e1 := r.EnergyAt(60, 128, 0)
	e2 := r.EnergyAt(120, 128, 0)
	if math.Abs(e2-4*e1) > 1e-9*e2 {
		t.Errorf("ReRAM energy not quadratic in input: %g vs %g", e1, e2)
	}
	// Magnitude sanity: a full-scale read should be single-digit fJ.
	eMax := r.EnergyAt(255, 255, 0)
	if eMax < 0.1e-15 || eMax > 20e-15 {
		t.Errorf("ReRAM full-scale read = %g J, want ~fJ scale", eMax)
	}
	if _, err := NewReRAMCell(p, 0, 8); err == nil {
		t.Error("want error for 0 input bits")
	}
	if _, err := NewReRAMCell(p, 8, 13); err == nil {
		t.Error("want error for oversized weight bits")
	}
}

func TestSRAMComputeCell(t *testing.T) {
	p := params(t, 7)
	s, err := NewSRAMComputeCell(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.EnergyAt(0, 1, 0) != 0 {
		t.Error("zero input should consume nothing")
	}
	if s.EnergyAt(1, 0, 0) != 0 {
		t.Error("zero weight should consume nothing")
	}
	if s.EnergyAt(1, 1, 0) <= 0 {
		t.Error("1x1 bit op should consume energy")
	}
	if _, err := NewSRAMComputeCell(p, 0, 1); err == nil {
		t.Error("want error for 0 input bits")
	}
}

func TestC2CMac(t *testing.T) {
	p := params(t, 22)
	c, err := NewC2CMac(p, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.EnergyAt(255, 255, 0) <= c.EnergyAt(10, 10, 0) {
		t.Error("C2C energy must grow with operand magnitudes")
	}
	if _, err := NewC2CMac(p, 0, 8); err == nil {
		t.Error("want error for 0 input bits")
	}
}

func TestAnalogAdderAccumulator(t *testing.T) {
	p := params(t, 7)
	a, err := NewAnalogAdder(p, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Operands() != 4 {
		t.Errorf("Operands() = %d", a.Operands())
	}
	if a.EnergyAt(0, 0, 255) <= a.EnergyAt(0, 0, 0) {
		t.Error("analog adder energy must grow with summed value")
	}
	a8, _ := NewAnalogAdder(p, 8, 8)
	if a8.Area() <= a.Area() {
		t.Error("wider adders must be larger")
	}
	if _, err := NewAnalogAdder(p, 0, 8); err == nil {
		t.Error("want error for 0 operands")
	}
	if _, err := NewAnalogAdder(p, 100, 8); err == nil {
		t.Error("want error for too many operands")
	}
	ac, err := NewAnalogAccumulator(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ac.EnergyAt(0, 0, 1000) <= ac.EnergyAt(0, 0, 0) {
		t.Error("accumulator energy must grow with stored value")
	}
	if _, err := NewAnalogAccumulator(p, 0); err == nil {
		t.Error("want error for 0 output bits")
	}
}

func TestDigitalComponents(t *testing.T) {
	p := params(t, 65)
	da, _ := NewDigitalAdder(p, 16)
	if da.EnergyAt(0, 0, 60000) <= da.EnergyAt(0, 0, 1) {
		t.Error("adder switching should grow with magnitude")
	}
	if _, err := NewDigitalAdder(p, 0); err == nil {
		t.Error("want error for 0-bit adder")
	}
	dm, _ := NewDigitalMAC(p, 8, 8)
	dm4, _ := NewDigitalMAC(p, 4, 4)
	if dm.EnergyAt(128, 128, 0) <= dm4.EnergyAt(8, 8, 0) {
		t.Error("8x8 MAC must cost more than 4x4")
	}
	if _, err := NewDigitalMAC(p, 0, 8); err == nil {
		t.Error("want error for 0-bit MAC")
	}
	mux, _ := NewMultiplexer(p, 8, 16)
	if mux.EnergyAt(0, 0, 0) <= 0 {
		t.Error("mux energy must be positive")
	}
	if _, err := NewMultiplexer(p, 8, 1); err == nil {
		t.Error("want error for 1-way mux")
	}
	sa, _ := NewShiftAdd(p, 20)
	if sa.EnergyAt(0, 0, 1<<19) <= sa.EnergyAt(0, 0, 1) {
		t.Error("shift-add switching should grow with magnitude")
	}
	if _, err := NewShiftAdd(p, 0); err == nil {
		t.Error("want error for 0-bit shift-add")
	}
	reg, _ := NewRegister(p, 16)
	if reg.EnergyAt(0, 0, 0) <= 0 {
		t.Error("register energy must be positive")
	}
	if _, err := NewRegister(p, 0); err == nil {
		t.Error("want error for 0-bit register")
	}
}

func TestRowDriverSenseAmpWire(t *testing.T) {
	p := params(t, 65)
	rd256, _ := NewRowDriver(p, 256, 8)
	rd1024, _ := NewRowDriver(p, 1024, 8)
	if rd1024.EnergyAt(255, 0, 0) <= rd256.EnergyAt(255, 0, 0) {
		t.Error("longer rows must cost more to drive")
	}
	if _, err := NewRowDriver(p, 0, 8); err == nil {
		t.Error("want error for 0 cells")
	}
	se, _ := NewSenseAmp(p)
	if se.EnergyAt(0, 0, 0) <= 0 {
		t.Error("sense amp energy must be positive")
	}
	w1, _ := NewWire(p, 8, 1)
	w5, _ := NewWire(p, 8, 5)
	if w5.EnergyAt(128, 0, 0) <= w1.EnergyAt(128, 0, 0) {
		t.Error("longer wires must cost more")
	}
	if _, err := NewWire(p, 8, 0); err == nil {
		t.Error("want error for 0 length")
	}
	if _, err := NewWire(p, 0, 1); err == nil {
		t.Error("want error for 0 bits")
	}
}

func TestTechnologyScalingReducesEnergyAndArea(t *testing.T) {
	coarse := params(t, 65)
	fine := params(t, 7)
	a65, _ := NewADC(coarse, 8, false)
	a7, _ := NewADC(fine, 8, false)
	if a7.EnergyAt(0, 0, 0) >= a65.EnergyAt(0, 0, 0) {
		t.Error("7nm ADC should cost less than 65nm")
	}
	if a7.Area() >= a65.Area() {
		t.Error("7nm ADC should be smaller than 65nm")
	}
}

func TestVoltageScalingQuadratic(t *testing.T) {
	n, _ := tech.ByNm(65)
	pNom := Params{Node: n}
	pLow := Params{Node: n, Vdd: n.Vdd / 2}
	aNom, _ := NewADC(pNom, 8, false)
	aLow, _ := NewADC(pLow, 8, false)
	r := aLow.EnergyAt(0, 0, 0) / aNom.EnergyAt(0, 0, 0)
	if math.Abs(r-0.25) > 1e-9 {
		t.Errorf("half-voltage energy ratio = %g, want 0.25", r)
	}
	if _, err := NewADC(Params{Node: n, Vdd: -1}, 8, false); err == nil {
		t.Error("want error for negative Vdd")
	}
}

// Property: every model's EnergyAt is non-negative and finite over a wide
// operand range.
func TestQuickEnergyNonNegative(t *testing.T) {
	models := allModels(t)
	f := func(in, w, out int16) bool {
		for _, m := range models {
			e := m.EnergyAt(float64(in), float64(w), float64(out))
			if e < 0 || math.IsNaN(e) || math.IsInf(e, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// boundModel builds one model of a class core's Engine.bind binds from
// params and integer constructor arguments (a DAC's kind and an ADC's
// value awareness are 0 or 1).
type boundModel struct {
	class string
	args  []int
	build func(p Params, a []int) (Model, error)
}

func boundModels() []boundModel {
	return []boundModel{
		{"adc", []int{8, 0}, func(p Params, a []int) (Model, error) { return NewADC(p, a[0], a[1] != 0) }},
		{"adc-value-aware", []int{8, 1}, func(p Params, a []int) (Model, error) { return NewADC(p, a[0], a[1] != 0) }},
		{"dac", []int{0, 4}, func(p Params, a []int) (Model, error) { return NewDAC(p, DACKind(a[0]), a[1]) }},
		{"analog-adder", []int{2, 8}, func(p Params, a []int) (Model, error) { return NewAnalogAdder(p, a[0], a[1]) }},
		{"analog-accumulator", []int{10}, func(p Params, a []int) (Model, error) { return NewAnalogAccumulator(p, a[0]) }},
		{"digital-adder", []int{16}, func(p Params, a []int) (Model, error) { return NewDigitalAdder(p, a[0]) }},
		{"shift-add", []int{24}, func(p Params, a []int) (Model, error) { return NewShiftAdd(p, a[0]) }},
		{"register", []int{24}, func(p Params, a []int) (Model, error) { return NewRegister(p, a[0]) }},
		{"multiplexer", []int{8, 2}, func(p Params, a []int) (Model, error) { return NewMultiplexer(p, a[0], a[1]) }},
		{"row-driver", []int{256, 4}, func(p Params, a []int) (Model, error) { return NewRowDriver(p, a[0], a[1]) }},
		{"sense-amp", nil, func(p Params, _ []int) (Model, error) { return NewSenseAmp(p) }},
		{"wire", []int{8, 2}, func(p Params, a []int) (Model, error) { return NewWire(p, a[0], float64(a[1])/2) }},
		{"reram-cell", []int{4, 2}, func(p Params, a []int) (Model, error) { return NewReRAMCell(p, a[0], a[1]) }},
		{"sram-cell", []int{1, 1}, func(p Params, a []int) (Model, error) { return NewSRAMComputeCell(p, a[0], a[1]) }},
		{"stt-cell", []int{4}, func(p Params, a []int) (Model, error) { return NewSTTRAMCell(p, a[0]) }},
		{"edram-cell", []int{4, 2}, func(p Params, a []int) (Model, error) { return NewEDRAMCell(p, a[0], a[1]) }},
		{"mzi-modulator", []int{4}, func(p Params, a []int) (Model, error) { return NewMZIModulator(p, a[0]) }},
		{"photodetector", nil, func(p Params, _ []int) (Model, error) { return NewPhotodetector(p) }},
		{"photonic-cell", nil, func(p Params, _ []int) (Model, error) { return NewPhotonicWeightCell(p) }},
		{"c2c-mac", []int{8, 8}, func(p Params, a []int) (Model, error) { return NewC2CMac(p, a[0], a[1]) }},
		{"digital-mac", []int{4, 2}, func(p Params, a []int) (Model, error) { return NewDigitalMAC(p, a[0], a[1]) }},
	}
}

// TestOutputKeyMatchesMeanEnergy: for a model of every class core binds,
// OutputKey admits it exactly when its MeanEnergy on some output PMF
// differs from its MeanEnergy on none; models built alike share a key
// and price every output PMF bit for bit alike; and moving any
// constructor argument (the technology node and supply included) so that
// EnergyAt moves also moves the key.
func TestOutputKeyMatchesMeanEnergy(t *testing.T) {
	uniform, err := dist.UniformInts(0, 255)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := dist.FromPoints([]dist.Point{{Value: 1, Prob: 3}, {Value: 40, Prob: 1}, {Value: 900, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	outputs := []*dist.PMF{dist.Delta(0), dist.Delta(5), uniform, skewed}
	energies := func(m Model) []float64 {
		var out []float64
		for _, o := range outputs {
			e, err := m.MeanEnergy(Operands{Output: o})
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			out = append(out, e)
		}
		return out
	}
	// probes are the (in, weight, out) points EnergyAt is compared at.
	probes := []float64{0, 1, 3, 7, 100, 1000}
	energyAtMoves := func(a, b Model) bool {
		for _, in := range probes {
			for _, w := range probes {
				for _, o := range probes {
					if math.Float64bits(a.EnergyAt(in, w, o)) != math.Float64bits(b.EnergyAt(in, w, o)) {
						return true
					}
				}
			}
		}
		return false
	}
	base := params(t, 65)
	vdd := base
	vdd.Vdd = 0.9 * base.Node.Vdd
	for _, c := range boundModels() {
		m, err := c.build(base, c.args)
		if err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		key, ok := OutputKey(m)
		none, err := m.MeanEnergy(Operands{})
		if err != nil {
			t.Fatal(err)
		}
		reads := false
		for _, e := range energies(m) {
			reads = reads || math.Float64bits(e) != math.Float64bits(none)
		}
		if ok != reads {
			t.Errorf("%s: OutputKey ok = %v, but MeanEnergy reads Output: %v", c.class, ok, reads)
		}
		if !ok {
			if key != nil {
				t.Errorf("%s: OutputKey = %v with ok false, want nil", c.class, key)
			}
			continue
		}

		twin, err := c.build(base, c.args)
		if err != nil {
			t.Fatal(err)
		}
		if twinKey, _ := OutputKey(twin); twinKey != key {
			t.Errorf("%s: two models built alike have keys %v and %v", c.class, key, twinKey)
		}
		want := energies(m)
		for i, e := range energies(twin) {
			if math.Float64bits(e) != math.Float64bits(want[i]) {
				t.Errorf("%s: equal keys, output %d priced %g and %g", c.class, i, want[i], e)
			}
		}

		type variant struct {
			name string
			p    Params
			args []int
		}
		variants := []variant{{"node", params(t, 45), c.args}, {"vdd", vdd, c.args}}
		for i := range c.args {
			args := append([]int(nil), c.args...)
			if c.class == "adc-value-aware" && i == 1 {
				args[i] = 1 - args[i]
			} else {
				args[i]++
			}
			variants = append(variants, variant{fmt.Sprintf("argument %d", i), base, args})
		}
		for _, v := range variants {
			moved, err := c.build(v.p, v.args)
			if err != nil {
				t.Fatalf("%s, %s moved: %v", c.class, v.name, err)
			}
			movedKey, _ := OutputKey(moved)
			if energyAtMoves(m, moved) && movedKey == key {
				t.Errorf("%s: moving %s moves EnergyAt but not the key", c.class, v.name)
			}
		}
	}
}
