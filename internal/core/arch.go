// Package core is CiMLoop's primary contribution: the fast, accurate,
// data-value-dependent statistical energy model (paper §III).
//
// The pipeline follows §III-C/§III-D and Algorithm 1:
//
//  1. Workload operand distributions: per-layer PMFs of inputs, weights,
//     and outputs (package workload).
//  2. Encoding and slicing: PMFs are transformed by the architecture's
//     data representation (package enc); bit slices are exposed to the
//     mapper as extra einsum dimensions, exactly as CiMLoop exposes them
//     to Timeloop.
//  3. Component energy: each component's plug-in (package circuits)
//     reduces the propagated value distribution to an average energy per
//     action — computed once per (layer, architecture) and amortized over
//     every mapping evaluated (the paper's mapping-invariant assumption,
//     §III-D3).
//
// Action counts come from the mapping analysis (package mapping); energy
// is actions × average energy per action, so evaluating one more mapping
// costs only the count analysis, which is why CiMLoop is orders of
// magnitude faster than value-level simulation (Table II). How a search
// keeps that per-mapping step small is described in evaluate.go.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cactilite"
	"repro/internal/circuits"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tech"
	"repro/internal/tensor"
)

// Slice dimension names injected into workload einsums (paper §III-C2:
// "computations across multiple slices are exposed to the mapper").
const (
	DimInputSlice  = "_IB"
	DimWeightSlice = "_WB"
)

// Arch couples a flattened container-hierarchy with its technology context,
// data representation, and mapper guidance. It is what a macro definition
// (package macros) produces.
type Arch struct {
	Name   string
	Levels []spec.Level

	Node tech.Node
	Vdd  float64 // supply voltage; 0 selects nominal
	// ClockHz is the array activation rate at nominal Vdd.
	ClockHz float64

	// Operand precisions and slice widths.
	InputBits  int // workload input precision
	WeightBits int // workload weight precision
	DACBits    int // input bits converted per DAC step (slice width)
	CellBits   int // weight bits stored per device (slice width)

	// Encodings (package enc names: "unsigned", "offset", "differential",
	// "twos-complement", "magnitude", "xnor").
	InputEncoding  string
	WeightEncoding string

	// Mapper guidance.
	SpatialPrefs  map[int][]string
	InnerDims     []string
	TemporalLevel int
	// TemporalTargets routes specific dims' leftover temporal loops to
	// specific storage levels.
	TemporalTargets map[string]int
	// WeightSliceLevel places the weight-slice dim spatially at the given
	// spatial level index; -1 keeps it temporal.
	WeightSliceLevel int
	// InputSliceLevel places the input-slice dim spatially; -1 (usual)
	// keeps it temporal (bit-serial DACs).
	InputSliceLevel int

	// ADCShare is the column-mux depth: how many columns share one ADC.
	// Sharing serializes conversions (cycles multiply) and shrinks ADC
	// area. Zero means 1 (one converter per column).
	ADCShare int
}

// Validate checks the architecture's static consistency.
func (a *Arch) Validate() error {
	if a.Name == "" {
		return errors.New("core: arch has no name")
	}
	if len(a.Levels) == 0 {
		return fmt.Errorf("core: arch %q has no levels", a.Name)
	}
	if a.Node.Nm == 0 {
		return fmt.Errorf("core: arch %q missing technology node", a.Name)
	}
	if a.ClockHz <= 0 {
		return fmt.Errorf("core: arch %q clock %g must be positive", a.Name, a.ClockHz)
	}
	for _, b := range []struct {
		name string
		v    int
	}{
		{"input bits", a.InputBits}, {"weight bits", a.WeightBits},
		{"dac bits", a.DACBits}, {"cell bits", a.CellBits},
	} {
		if b.v <= 0 || b.v > 16 {
			return fmt.Errorf("core: arch %q %s %d out of [1,16]", a.Name, b.name, b.v)
		}
	}
	if a.DACBits > a.InputBits {
		return fmt.Errorf("core: arch %q dac bits %d exceed input bits %d", a.Name, a.DACBits, a.InputBits)
	}
	if a.CellBits > a.WeightBits {
		return fmt.Errorf("core: arch %q cell bits %d exceed weight bits %d", a.Name, a.CellBits, a.WeightBits)
	}
	if a.ADCShare < 0 || a.ADCShare > 1024 {
		return fmt.Errorf("core: arch %q adc share %d out of [0,1024]", a.Name, a.ADCShare)
	}
	// A slice level pins the slice loops to that level's loop nest
	// (MapperOptions); negative keeps the slices temporal.
	for _, sl := range []struct {
		name  string
		level int
	}{{"weight slice level", a.WeightSliceLevel}, {"input slice level", a.InputSliceLevel}} {
		if sl.level >= len(a.Levels) {
			return fmt.Errorf("core: arch %q %s %d is past its %d levels", a.Name, sl.name, sl.level, len(a.Levels))
		}
	}
	return nil
}

// adcShare resolves the column-mux depth.
func (a *Arch) adcShare() int {
	if a.ADCShare <= 0 {
		return 1
	}
	return a.ADCShare
}

// effectiveVdd resolves the supply voltage.
func (a *Arch) effectiveVdd() float64 {
	if a.Vdd == 0 {
		return a.Node.Vdd
	}
	return a.Vdd
}

// ResolveInputEncoding returns the encoding used for input activations:
// the configured one, except that signed operands on an unsigned-only
// encoding fall back to offset encoding (representation may change per
// layer, paper §II-D).
func (a *Arch) ResolveInputEncoding(signed bool) string {
	name := a.InputEncoding
	if name == "" {
		name = "unsigned"
	}
	if signed && name == "unsigned" {
		return "offset"
	}
	return name
}

// ResolveWeightEncoding returns the encoding used for weights (always
// signed-capable; default offset).
func (a *Arch) ResolveWeightEncoding() string {
	if a.WeightEncoding == "" {
		return "offset"
	}
	return a.WeightEncoding
}

// InputSlices returns the number of input bit slices.
func (a *Arch) InputSlices() int { return (a.InputBits + a.DACBits - 1) / a.DACBits }

// WeightSlices returns the number of weight bit slices (devices per
// weight rail).
func (a *Arch) WeightSlices() int { return (a.WeightBits + a.CellBits - 1) / a.CellBits }

// binding attaches an energy/area model to one flattened level.
type binding struct {
	level     *spec.Level
	levelIdx  int
	instances int64 // product of enclosing mesh sizes

	// Storage backed by a memory model (per-bit costs):
	buffer *cactilite.Buffer
	dram   *cactilite.DRAM
	// Storage or transit or compute backed by a circuit model (per-value
	// costs):
	model circuits.Model
	// idleEnergy is model's energy for one action on zero-valued
	// operands, EnergyAt(0, 0, 0): the price of an idle instance's strobe
	// (0 without a model).
	idleEnergy float64
	// sumKey is model's circuits.OutputKey if model's mean energy reads
	// the column sum arriving above the level, and nil otherwise.
	sumKey any
	// programEnergy is the per-value cost of writing a weight into a
	// compute cell (device programming).
	programEnergy float64
}

// Engine is a compiled architecture ready to evaluate layers and mappings.
type Engine struct {
	arch     *Arch
	bindings []binding
	area     float64 // µm², all instances
	clock    float64 // effective clock at the arch's supply
	leakage  float64 // watts of static power across all buffers
	memo     *PrepareMemo
	// mapperOpts is the arch-static mapper guidance (MapperOptions with
	// no budget or seed), built once at compile time. The mapper only
	// reads its maps and slices, so every search shares them and sets
	// its own budget and seed on a copy of the struct.
	mapperOpts mapper.Options
}

// WithPrepareMemo returns a copy of e whose layer preparations share the
// memo m — operand stages keyed by (resolved encodings, operand and slice
// precisions, operand PMFs) and column sums keyed by (cell product,
// depth) — with every other engine holding m (nil: each PrepareLayer call
// uses a memo of its own). A server shares one memo among all its
// engines, bounded by its cache capacity. The copy shares e's compiled
// state; prepared contexts are bit-identical either way.
func (e *Engine) WithPrepareMemo(m *PrepareMemo) *Engine {
	c := *e
	c.memo = m
	return &c
}

// NewEngine validates and compiles an architecture: binds every level to
// its component model and computes total area.
func NewEngine(a *Arch) (*Engine, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	vdd := a.effectiveVdd()
	freqScale, err := a.Node.FrequencyAtVoltage(vdd)
	if err != nil {
		return nil, fmt.Errorf("core: arch %q: %w", a.Name, err)
	}
	e := &Engine{arch: a, clock: a.ClockHz * freqScale, mapperOpts: a.MapperOptions(0, 0)}
	params := circuits.Params{Node: a.Node, Vdd: vdd}
	instances := int64(1)
	for i := range a.Levels {
		lv := &a.Levels[i]
		b := binding{level: lv, levelIdx: i, instances: instances}
		if lv.Kind == spec.SpatialLevel {
			instances *= int64(lv.Mesh)
			e.bindings = append(e.bindings, b)
			continue
		}
		if err := e.bind(&b, params); err != nil {
			return nil, fmt.Errorf("core: arch %q level %q: %w", a.Name, lv.Name, err)
		}
		// Transit and compute costs come from a circuit model; a memory
		// class there binds none and would fail at the first evaluation.
		if (lv.Kind == spec.TransitLevel || lv.Kind == spec.ComputeLevel) && b.model == nil {
			return nil, fmt.Errorf("core: arch %q level %q: class %q has no circuit model for a %s level",
				a.Name, lv.Name, lv.Class, lv.Kind)
		}
		if b.model != nil {
			b.idleEnergy = b.model.EnergyAt(0, 0, 0)
			b.sumKey, _ = circuits.OutputKey(b.model)
		}
		e.bindings = append(e.bindings, b)
	}
	for _, b := range e.bindings {
		e.area += b.areaPerInstance() * float64(b.instances)
		if b.buffer != nil {
			e.leakage += b.buffer.LeakagePower() * float64(b.instances)
		}
	}
	return e, nil
}

// LeakagePower returns the total static power of the architecture's
// buffers in watts.
func (e *Engine) LeakagePower() float64 { return e.leakage }

// attr reads a level attribute with a default.
func attr(lv *spec.Level, key string, def float64) float64 {
	if v, ok := lv.Attrs[key]; ok {
		return v
	}
	return def
}

// bind attaches the circuit or memory model selected by the level's class.
func (e *Engine) bind(b *binding, params circuits.Params) error {
	lv := b.level
	a := e.arch
	var err error
	switch lv.Class {
	case "dram":
		b.dram, err = cactilite.NewDRAM(lv.Name, attr(lv, "bandwidth_gbps", 0))
	case "sram-buffer":
		capacityBits := int64(attr(lv, "capacity_kb", 64) * 8192)
		wordBits := int(attr(lv, "word_bits", 64))
		b.buffer, err = cactilite.NewBuffer(lv.Name, capacityBits, wordBits, a.Node, a.effectiveVdd())
	case "adc":
		bits := int(attr(lv, "resolution", 8))
		b.model, err = circuits.NewADC(params, bits, attr(lv, "value_aware", 0) != 0)
	case "dac":
		kind := circuits.DACCapacitive
		if attr(lv, "kind", 0) != 0 {
			kind = circuits.DACResistive
		}
		b.model, err = circuits.NewDAC(params, kind, a.DACBits)
	case "analog-adder":
		b.model, err = circuits.NewAnalogAdder(params, int(attr(lv, "operands", 2)), int(attr(lv, "out_bits", 8)))
	case "analog-accumulator":
		b.model, err = circuits.NewAnalogAccumulator(params, int(attr(lv, "out_bits", 10)))
	case "digital-adder":
		b.model, err = circuits.NewDigitalAdder(params, int(attr(lv, "bits", 16)))
	case "shift-add":
		b.model, err = circuits.NewShiftAdd(params, int(attr(lv, "bits", 24)))
	case "register":
		b.model, err = circuits.NewRegister(params, int(attr(lv, "bits", 24)))
	case "multiplexer":
		b.model, err = circuits.NewMultiplexer(params, int(attr(lv, "bits", 8)), int(attr(lv, "ways", 2)))
	case "row-driver":
		b.model, err = circuits.NewRowDriver(params, int(attr(lv, "cells", 256)), a.DACBits)
	case "sense-amp":
		b.model, err = circuits.NewSenseAmp(params)
	case "wire":
		b.model, err = circuits.NewWire(params, int(attr(lv, "bits", 8)), attr(lv, "length_mm", 1))
	case "reram-cell":
		var cell *circuits.ReRAMCell
		cell, err = circuits.NewReRAMCell(params, a.DACBits, a.CellBits)
		b.model = cell
		b.programEnergy = attr(lv, "program_energy", 1e-12)
	case "sram-cell":
		b.model, err = circuits.NewSRAMComputeCell(params, a.DACBits, a.CellBits)
		b.programEnergy = attr(lv, "program_energy", 20e-15)
	case "stt-cell":
		var cell *circuits.STTRAMCell
		cell, err = circuits.NewSTTRAMCell(params, a.DACBits)
		if err == nil {
			b.model = cell
			b.programEnergy = attr(lv, "program_energy", cell.WriteEnergy())
		}
	case "edram-cell":
		b.model, err = circuits.NewEDRAMCell(params, a.DACBits, a.CellBits)
		b.programEnergy = attr(lv, "program_energy", 30e-15)
	case "mzi-modulator":
		b.model, err = circuits.NewMZIModulator(params, a.DACBits)
	case "photodetector":
		b.model, err = circuits.NewPhotodetector(params)
	case "photonic-cell":
		b.model, err = circuits.NewPhotonicWeightCell(params)
		b.programEnergy = attr(lv, "program_energy", 2e-12)
	case "c2c-mac":
		b.model, err = circuits.NewC2CMac(params, a.InputBits, a.WeightBits)
		b.programEnergy = attr(lv, "program_energy", 20e-15)
	case "digital-mac":
		b.model, err = circuits.NewDigitalMAC(params, a.DACBits, a.CellBits)
		b.programEnergy = attr(lv, "program_energy", 20e-15)
	default:
		return fmt.Errorf("unknown component class %q", lv.Class)
	}
	return err
}

// areaPerInstance returns the level's per-instance area in µm², honoring
// the area_scale attribute (e.g. ADC sharing: one converter per mux
// group).
func (b *binding) areaPerInstance() float64 {
	scale := attr(b.level, "area_scale", 1)
	switch {
	case b.buffer != nil:
		return b.buffer.Area() * scale
	case b.model != nil:
		return b.model.Area() * scale
	default:
		return 0 // spatial levels and DRAM (off-chip) have no on-chip area
	}
}

// Area returns the architecture's total on-chip area in µm².
func (e *Engine) Area() float64 { return e.area }

// ClockHz returns the effective array activation rate at the configured
// supply voltage.
func (e *Engine) ClockHz() float64 { return e.clock }

// Arch returns the engine's architecture.
func (e *Engine) Arch() *Arch { return e.arch }

// ComponentModel returns the circuit model bound at level i, or nil for
// spatial levels and memory-backed storage. The value-level simulator uses
// this so both models share one energy definition.
func (e *Engine) ComponentModel(i int) circuits.Model {
	if i < 0 || i >= len(e.bindings) {
		return nil
	}
	return e.bindings[i].model
}

// BufferAt returns the cactilite buffer bound at level i, or nil.
func (e *Engine) BufferAt(i int) *cactilite.Buffer {
	if i < 0 || i >= len(e.bindings) {
		return nil
	}
	return e.bindings[i].buffer
}

// ProgramEnergyAt returns the per-value weight programming energy at the
// compute level i (0 for other levels).
func (e *Engine) ProgramEnergyAt(i int) float64 {
	if i < 0 || i >= len(e.bindings) {
		return 0
	}
	return e.bindings[i].programEnergy
}

// AreaBreakdown returns per-level area (all instances), parallel to the
// level list.
func (e *Engine) AreaBreakdown() []float64 {
	out := make([]float64, len(e.bindings))
	for i, b := range e.bindings {
		out[i] = b.areaPerInstance() * float64(b.instances)
	}
	return out
}

// reductionDepthBelow returns the number of simultaneously summed analog
// values arriving at the boundary just above level b: the product of mesh
// sizes of output-reduced spatial levels inside b. This is an architecture
// property (mapping-invariant), used to synthesize ADC input value
// distributions.
func (a *Arch) reductionDepthBelow(b int) int64 {
	depth := int64(1)
	for j := b; j < len(a.Levels); j++ {
		lv := &a.Levels[j]
		if lv.Kind != spec.SpatialLevel {
			continue
		}
		if lv.SpatialReuse[tensor.Output] {
			depth *= int64(lv.Mesh)
			continue
		}
		// A coalescing transit between b and j also reduces.
		for c := b; c < j; c++ {
			if a.Levels[c].Kind == spec.TransitLevel && a.Levels[c].CoalesceT[tensor.Output] {
				depth *= int64(lv.Mesh)
				break
			}
		}
	}
	return depth
}

// OutputBits returns the accumulated-output precision for a reduction of
// the given depth.
func (a *Arch) OutputBits(reduction int64) int {
	bits := a.InputBits + a.WeightBits + int(math.Ceil(math.Log2(float64(reduction+1))))
	if bits > 32 {
		bits = 32
	}
	return bits
}

// SlicedEinsum augments a workload einsum with the architecture's slice
// dimensions, exposing them to the mapper (paper §III-C2).
//
// Weight slices index distinct devices (different columns hold different
// bits of a weight), so the weight projection gains a _WB axis: weight
// data genuinely multiplies. Input slices are extracted locally from an
// already-fetched value (a DAC bank or input register slices the bits), so
// _IB is a pure repetition dimension: it multiplies array activations and
// DAC converts without inflating input data volume — any level holding
// inputs reuses them across input-slice steps for free.
func (a *Arch) SlicedEinsum(e *tensor.Einsum) (*tensor.Einsum, error) {
	ib, wb := a.InputSlices(), a.WeightSlices()
	out := &tensor.Einsum{Name: e.Name + "+sliced"}
	out.Dims = append(out.Dims, e.Dims...)
	out.Dims = append(out.Dims,
		tensor.Dim{Name: DimInputSlice, Bound: ib},
		tensor.Dim{Name: DimWeightSlice, Bound: wb},
	)
	for _, s := range e.Spaces {
		ns := tensor.DataSpace{Name: s.Name, Kind: s.Kind}
		ns.Axes = append(ns.Axes, s.Axes...)
		if s.Kind == tensor.Weight {
			ns.Axes = append(ns.Axes, tensor.Axis{{Dim: DimWeightSlice, Coeff: 1}})
		}
		out.Spaces = append(out.Spaces, ns)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// MapperOptions assembles the mapper guidance for a sliced einsum:
// spatial preferences, pinned slice loops, and temporal routing.
func (a *Arch) MapperOptions(maxMappings int, seed int64) mapper.Options {
	fixed := map[int][]mapping.Loop{}
	prefs := map[int][]string{}
	for k, v := range a.SpatialPrefs {
		prefs[k] = append([]string(nil), v...)
	}
	inner := append([]string(nil), a.InnerDims...)
	// pin places a slice dim at its level, clamping spatial factors to
	// the mesh: excess slices (e.g. 8 weight bits on a 4-operand analog
	// adder) spill into temporal passes handled by the mapper.
	pin := func(level int, dim string, slices int) {
		factor := slices
		if level < len(a.Levels) && a.Levels[level].Kind == spec.SpatialLevel && a.Levels[level].Mesh < factor {
			factor = a.Levels[level].Mesh
		}
		fixed[level] = append(fixed[level], mapping.Loop{Dim: dim, Factor: factor})
	}
	// Temporal weight-slice passes always go outermost: each pass
	// programs the arrays once, instead of re-streaming weights inside
	// the batch loops. This covers both fully-temporal slicing and the
	// spill left over when slices exceed a pinned spatial mesh.
	outer := []string{DimWeightSlice}
	if a.WeightSliceLevel >= 0 {
		pin(a.WeightSliceLevel, DimWeightSlice, a.WeightSlices())
	}
	if a.InputSliceLevel >= 0 {
		pin(a.InputSliceLevel, DimInputSlice, a.InputSlices())
	} else {
		inner = append([]string{DimInputSlice}, inner...)
	}
	targets := make(map[string]int, len(a.TemporalTargets))
	for k, v := range a.TemporalTargets {
		targets[k] = v
	}
	return mapper.Options{
		MaxMappings:     maxMappings,
		Seed:            seed,
		Fixed:           fixed,
		SpatialPrefs:    prefs,
		InnerDims:       inner,
		OuterDims:       outer,
		TemporalLevel:   a.TemporalLevel,
		TemporalTargets: targets,
	}
}
