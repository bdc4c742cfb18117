// Package circuits is the component plug-in suite: energy and area models
// for the devices and circuits CiM macros are built from (paper §III-C2).
// It plays the role of Accelergy's plug-ins (ADC plug-in, NeuroSim
// components, Aladdin digital models, the Library plug-in).
//
// Every model exposes two views of the same physics:
//
//   - EnergyAt(in, weight, out): energy of one action with concrete operand
//     values — consumed by the value-level simulator (the NeuroSim role).
//   - MeanEnergy(Operands): expected energy per action given operand value
//     PMFs — consumed by the statistical model.
//
// Because both views share one definition, differences between the
// statistical model and the value-level simulator isolate the statistical
// approximation itself, exactly as the paper's Fig. 6 isolates it.
//
// Energies are in joules, areas in square micrometers. Models are
// calibrated at a 65 nm reference node and scaled with package tech.
package circuits

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/tech"
)

// Operands carries the value PMFs a component's action depends on. Any
// field may be nil when the component does not use it; models fall back to
// a representative fixed value (mid-scale), which is exactly the
// fixed-energy approximation the paper's accuracy study compares against.
// Package core sets Output only for the models OutputKey admits; every
// other model ignores it.
type Operands struct {
	Input  *dist.PMF // encoded+sliced level at the input port
	Weight *dist.PMF // stored weight level
	Output *dist.PMF // value at the output port
}

// OutputKey reports whether m's MeanEnergy reads Operands.Output: true
// for a value-aware ADC, an analog adder or accumulator, a digital adder
// and a shift-add. For those it returns m's parameters as a comparable
// key, equal for two models only when their EnergyAt agree bit for bit,
// so a mean energy over one output PMF can be computed once per key;
// for every other model it returns a nil key.
func OutputKey(m Model) (key any, ok bool) {
	switch m := m.(type) {
	case *ADC:
		if m.valueAware {
			return *m, true
		}
	case *AnalogAdder:
		return *m, true
	case *AnalogAccumulator:
		return *m, true
	case *DigitalAdder:
		return *m, true
	case *ShiftAdd:
		return *m, true
	}
	return nil, false
}

// Model is one hardware component plug-in.
type Model interface {
	// Name identifies the model class (e.g. "adc", "dac-capacitive").
	Name() string
	// EnergyAt returns the energy in joules of one action with concrete
	// operand levels.
	EnergyAt(in, weight, out float64) float64
	// MeanEnergy returns the expected energy per action under the given
	// operand PMFs.
	MeanEnergy(ops Operands) (float64, error)
	// Area returns the component area in µm².
	Area() float64
}

// Params carries the technology context shared by all constructors.
type Params struct {
	Node tech.Node
	Vdd  float64 // supply voltage; 0 selects the node's nominal Vdd
}

// refNode is the calibration node for all base constants.
var refNode = mustNode(65)

func mustNode(nm int) tech.Node {
	n, err := tech.ByNm(nm)
	if err != nil {
		panic("circuits: " + err.Error())
	}
	return n
}

// effectiveVdd resolves the supply voltage, defaulting to nominal.
func (p Params) effectiveVdd() float64 {
	if p.Vdd == 0 {
		return p.Node.Vdd
	}
	return p.Vdd
}

// validate checks the params are usable and returns the resolved supply.
func (p Params) validate() (float64, error) {
	if p.Node.Nm == 0 {
		return 0, errors.New("circuits: params missing technology node")
	}
	v := p.effectiveVdd()
	if v <= 0 {
		return 0, fmt.Errorf("circuits: supply voltage %g must be positive", v)
	}
	return v, nil
}

// scaleEnergy converts a 65 nm-nominal reference energy to the params'
// node and supply voltage.
func scaleEnergy(eRef float64, p Params, vdd float64) float64 {
	e := tech.ScaleEnergy(eRef, refNode, p.Node)
	r := vdd / p.Node.Vdd
	return e * r * r
}

// scaleArea converts a 65 nm reference area to the params' node.
func scaleArea(aRef float64, p Params) float64 {
	return tech.ScaleArea(aRef, refNode, p.Node)
}

// meanInput evaluates E[f(in)] under ops.Input, falling back to f(fallback)
// when no PMF is supplied.
func meanInput(ops Operands, fallback float64, f func(float64) float64) float64 {
	if ops.Input == nil {
		return f(fallback)
	}
	return ops.Input.Expected(f)
}

func meanWeight(ops Operands, fallback float64, f func(float64) float64) float64 {
	if ops.Weight == nil {
		return f(fallback)
	}
	return ops.Weight.Expected(f)
}

func meanOutput(ops Operands, fallback float64, f func(float64) float64) float64 {
	if ops.Output == nil {
		return f(fallback)
	}
	return ops.Output.Expected(f)
}

func fullScale(bits int) float64 {
	return float64(int64(1)<<uint(bits) - 1)
}

func checkBitsRange(what string, bits, lo, hi int) error {
	if bits < lo || bits > hi {
		return fmt.Errorf("circuits: %s bits %d out of [%d,%d]", what, bits, lo, hi)
	}
	return nil
}
