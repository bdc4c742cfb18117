// Package valuesim is the value-level ground-truth simulator: the role
// NeuroSim plays in the paper's evaluation (§IV). It executes concrete
// sampled tensors through a CiM macro step by step, bit-slice by
// bit-slice, computing every component's energy from the actual values it
// propagates — no distributions, no independence assumption, no
// mapping-invariance assumption.
//
// Critically, it consumes the same circuit models (via the engine's
// bindings) and the same encodings as the statistical model, so the
// difference between the two isolates exactly the statistical
// approximation — what Fig. 6 measures — and the speed gap between the two
// is what Table II measures.
//
// The simulator covers the macro compute path (DACs, cells, analog
// adders/accumulators, ADCs, digital accumulation). Buffer traffic is
// value-independent and identical in both models by construction, so
// comparisons are made over the compute-path components.
//
// Every per-action energy is a pure function of integer operands, so the
// simulator tabulates it on a lattice filled lazily from the engine's own
// bound models: the DAC by input slice level, the cell by (input slice,
// cell level) pair, the analog adder by column sum and the readout (ADC,
// then shift-add) by column or grouped sum. A lattice wider than the
// simulation's MAC count, and Macro C's running analog accumulation, call
// the models directly instead. Charges are summed per level index in the
// per-action order, so the result is bit-identical to charging each action
// through its model; oracle_test.go keeps that per-action loop as the
// reference.
package valuesim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/enc"
	"repro/internal/spec"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// macroShape is the structural view of a flattened CiM macro hierarchy.
type macroShape struct {
	dacIdx      int // input converter/driver transit (-1 if none)
	shiftAddIdx int // digital output accumulator (-1 if none)
	adcIdx      int // output converter transit (-1 if none)
	adderIdx    int // analog output coalescer (-1 if none)
	accumIdx    int // analog accumulator storage (-1 if none)
	computeIdx  int
	rows        int // innermost output-reduced mesh
	groupCols   int // columns merged per ADC read (analog adder groups)
	physCols    int // physical column count outside the groups
}

// detectShape maps a flattened hierarchy onto the canonical macro
// structure (the Base/A/B/C/D/Digital topologies of package macros).
func detectShape(levels []spec.Level) (*macroShape, error) {
	s := &macroShape{
		dacIdx: -1, shiftAddIdx: -1, adcIdx: -1,
		adderIdx: -1, accumIdx: -1, computeIdx: -1,
		rows: 1, groupCols: 1, physCols: 1,
	}
	haveBuffer := false
	var meshes []int
	for i := range levels {
		lv := &levels[i]
		switch lv.Kind {
		case spec.StorageLevel:
			switch lv.Class {
			case "sram-buffer", "dram":
				haveBuffer = true
			case "analog-accumulator":
				s.accumIdx = i
			case "shift-add", "register":
				if lv.Keeps[tensor.Output] {
					s.shiftAddIdx = i
				}
				// Input/weight registers are cheap staging; they are not
				// part of the simulated compute path.
			default:
				return nil, fmt.Errorf("valuesim: unsupported storage class %q", lv.Class)
			}
		case spec.TransitLevel:
			switch lv.Class {
			case "dac", "row-driver":
				s.dacIdx = i
			case "adc":
				s.adcIdx = i
			case "analog-adder", "digital-adder":
				if lv.CoalesceT[tensor.Output] {
					s.adderIdx = i
				}
			case "wire", "sense-amp", "multiplexer":
				// Fixed-energy pass-throughs; negligible and skipped.
			default:
				return nil, fmt.Errorf("valuesim: unsupported transit class %q", lv.Class)
			}
		case spec.SpatialLevel:
			meshes = append(meshes, i)
		case spec.ComputeLevel:
			s.computeIdx = i
		}
	}
	if !haveBuffer || s.computeIdx < 0 {
		return nil, errors.New("valuesim: hierarchy lacks a buffer or compute level")
	}
	for _, mi := range meshes {
		lv := &levels[mi]
		switch {
		case lv.SpatialReuse[tensor.Output]:
			s.rows *= lv.Mesh
		case s.adderIdx >= 0 && mi > s.adderIdx:
			s.groupCols *= lv.Mesh
		default:
			s.physCols *= lv.Mesh
		}
	}
	return s, nil
}

// Result is the outcome of one value-level simulation.
type Result struct {
	// Energy is the compute-path energy in joules for the simulated steps.
	Energy float64
	// ByComponent maps level names to their energy.
	ByComponent map[string]float64
	// MACs is the number of MAC-slice operations executed.
	MACs int64
	// Steps is the number of input vectors streamed.
	Steps int
	// Rows and LogicalCols describe the simulated matrix-vector shape.
	Rows, LogicalCols int
}

// Config controls a simulation.
type Config struct {
	// Steps is the number of input vectors streamed through the array.
	Steps int
	// Seed drives operand sampling.
	Seed int64
}

// Simulate runs sampled operands matching the layer's statistics through
// the macro and returns per-value energies plus the empirical operand PMFs
// (the profiling step of Algorithm 1 line 3, for feeding the statistical
// model the same marginals).
func Simulate(eng *core.Engine, layer workload.Layer, cfg Config) (*Result, *dist.PMF, *dist.PMF, error) {
	s, err := newSimulation(eng, layer, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := s.run()
	if err != nil {
		return nil, nil, nil, err
	}
	inPMF, err := dist.FromSamples(s.inSamples)
	if err != nil {
		return nil, nil, nil, err
	}
	wPMF, err := dist.FromSamples(s.wSamples)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, inPMF, wPMF, nil
}

// simulation is one simulation's sampled operands, encoded once, and its
// per-action energies.
type simulation struct {
	a                                      *core.Arch
	shape                                  *macroShape
	steps, ibSlices, wbSlices, logicalCols int

	inputs    [][]int // [step][row] operand levels
	inEnc     *enc.Encoding
	inSlicing enc.Slicing
	// wCells holds the weights' cell levels as one flat [col][slice][row]
	// array, so a column sum walks contiguous memory.
	wCells              []int
	inSamples, wSamples []float64

	// Per-action energies, nil where the component is absent.
	dac, cell, adder, adc, shiftAdd *lattice
	// accum is Macro C's analog accumulator: its energy depends on a
	// running float sum, so it and the ADC behind it (adcAccum, at the
	// full scale accumFull) are called directly.
	accum, adcAccum circuits.Model
	accumFull       float64
	adcBits         int
}

func newSimulation(eng *core.Engine, layer workload.Layer, cfg Config) (*simulation, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("valuesim: steps %d must be positive", cfg.Steps)
	}
	a := eng.Arch()
	shape, err := detectShape(a.Levels)
	if err != nil {
		return nil, err
	}
	s := &simulation{a: a, shape: shape, steps: cfg.Steps, wbSlices: a.WeightSlices(), ibSlices: a.InputSlices()}

	// Resolve where weight slices live: within an analog-added group
	// (Macro B), across separate logical columns (Base), or inside one
	// device (Macros C/D, wbSlices == 1).
	s.logicalCols = shape.physCols
	if shape.groupCols > 1 {
		if s.wbSlices > shape.groupCols {
			return nil, fmt.Errorf("valuesim: %d weight slices exceed %d grouped columns", s.wbSlices, shape.groupCols)
		}
	} else if s.wbSlices > 1 {
		if s.logicalCols%s.wbSlices != 0 {
			return nil, fmt.Errorf("valuesim: %d weight slices do not divide %d columns", s.wbSlices, s.logicalCols)
		}
		s.logicalCols /= s.wbSlices
	}
	rows, cols, wb := shape.rows, s.logicalCols, s.wbSlices

	ops, err := layer.SampleOperands(rows, cols, cfg.Steps, a.InputBits, a.WeightBits, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.inputs = ops.Inputs

	if s.inEnc, err = enc.ByName(a.ResolveInputEncoding(layer.Act.Signed), a.InputBits); err != nil {
		return nil, err
	}
	wEnc, err := enc.ByName(a.ResolveWeightEncoding(), a.WeightBits)
	if err != nil {
		return nil, err
	}
	if s.inSlicing, err = enc.NewSlicing(a.InputBits, a.DACBits); err != nil {
		return nil, err
	}
	wSlicing, err := enc.NewSlicing(a.WeightBits, a.CellBits)
	if err != nil {
		return nil, err
	}

	// Pre-encode weights into per-slice cell values; record raw levels.
	s.wCells = make([]int, cols*wb*rows)
	s.wSamples = make([]float64, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			raw := ops.Weights[r][c]
			s.wSamples = append(s.wSamples, float64(raw))
			rails, err := wEnc.Encode(raw)
			if err != nil {
				return nil, err
			}
			for k := 0; k < wb; k++ {
				s.wCells[(c*wb+k)*rows+r] = wSlicing.SliceValue(rails[0], k)
			}
		}
	}
	s.inSamples = make([]float64, 0, cfg.Steps*rows)
	for t := range ops.Inputs {
		for _, v := range ops.Inputs[t] {
			s.inSamples = append(s.inSamples, float64(v))
		}
	}

	models := shapeModels(eng, shape)
	if models.cell == nil {
		return nil, errors.New("valuesim: no compute model bound")
	}
	s.tabulate(models)
	return s, nil
}

// tabulate sets up the per-action energies. Each is a lattice over the
// integer operand its model is charged with: the input slice level (DAC),
// the (input slice, cell) level pair (cell), the integer column sum
// (analog adder) and the column or grouped sum (ADC, then shift-add). A
// lattice tabulates only when its range is no wider than the simulation's
// MAC count, so filling it never costs more than the loop it serves;
// otherwise (Macro D's 4M-wide sums) it calls the model on every action.
// Macro C's accumulator path always calls its models.
func (s *simulation) tabulate(m *shapeModelsSet) {
	a, rows := s.a, s.shape.rows
	macs := s.steps * s.ibSlices * s.logicalCols * s.wbSlices * rows
	maxIn := 1<<uint(a.DACBits) - 1
	maxCell := 1<<uint(a.CellBits) - 1
	if m.dac != nil {
		s.dac = newLattice(maxIn+1, macs, func(v int) float64 {
			return m.dac.EnergyAt(float64(v), 0, 0)
		})
	}
	s.cell = newLattice((maxIn+1)<<uint(a.CellBits), macs, func(i int) float64 {
		return m.cell.EnergyAt(float64(i>>uint(a.CellBits)), float64(i&maxCell), 0)
	})
	maxSum := rows * maxIn * maxCell
	if m.adder != nil {
		s.adder = newLattice(maxSum+1, macs, func(sum int) float64 {
			return m.adder.EnergyAt(0, 0, float64(sum))
		})
		// A group reads out the sum of its slices' columns, each
		// weighted by its place value: a sum over whole weights.
		maxSum = rows * maxIn * (1<<uint(a.WeightBits) - 1)
	}
	s.adcBits = 8
	if adc, ok := m.adc.(*circuits.ADC); ok {
		s.adcBits = adc.Bits()
	}
	adcFullScale := a.ColumnFullScale(s.shape.adcBoundary())
	if m.accumM != nil {
		s.accum, s.adcAccum = m.accumM, m.adc
		s.accumFull = adcFullScale * (math.Exp2(float64(a.InputBits)) - 1) / (math.Exp2(float64(a.DACBits)) - 1)
		return
	}
	if m.adc != nil {
		s.adc = newLattice(maxSum+1, macs, func(sum int) float64 {
			return m.adc.EnergyAt(0, 0, quantizeCode(float64(sum), adcFullScale, s.adcBits))
		})
	}
	if m.shiftAdd != nil {
		s.shiftAdd = newLattice(maxSum+1, macs, func(sum int) float64 {
			return m.shiftAdd.EnergyAt(0, 0, float64(sum))
		})
	}
}

// run streams the sampled inputs through the array, step by step and
// input slice by input slice, charging every action in a fixed order.
func (s *simulation) run() (*Result, error) {
	a, sh := s.a, s.shape
	rows, cols, wb := sh.rows, s.logicalCols, s.wbSlices
	led := ledger{level: make([]float64, len(a.Levels)), hit: make([]bool, len(a.Levels))}
	accum := make([]float64, cols)
	rail := make([]int, rows)
	in := make([]int, rows)
	cellRow := make([]int, rows) // in[r] << CellBits: the cell lattice's row offset
	cellFilled := make([]bool, 1<<uint(a.DACBits))
	for t := 0; t < s.steps; t++ {
		clear(accum)
		// Encode each input once per step; its slices are bit fields.
		for r := range rail {
			rails, err := s.inEnc.Encode(s.inputs[t][r])
			if err != nil {
				return nil, err
			}
			rail[r] = rails[0]
		}
		for ib := 0; ib < s.ibSlices; ib++ {
			for r, x := range rail {
				v := s.inSlicing.SliceValue(x, ib)
				in[r] = v
				cellRow[r] = v << uint(a.CellBits)
				if s.cell.e != nil && !cellFilled[v] {
					// First use of this input level: fill its row.
					for w := 0; w < 1<<uint(a.CellBits); w++ {
						s.cell.at(cellRow[r] | w)
					}
					cellFilled[v] = true
				}
				if s.dac != nil {
					led.charge(sh.dacIdx, s.dac.at(v))
				}
			}
			for c := 0; c < cols; c++ {
				groupSum := 0.0
				for k := 0; k < wb; k++ {
					colSum := s.column(&led, s.wCells[(c*wb+k)*rows:][:rows], in, cellRow)
					if s.adder != nil {
						// The analog adder consumes each member column;
						// the group reads out once below.
						led.charge(sh.adderIdx, s.adder.at(colSum))
						groupSum += float64(colSum) * float64(int64(1)<<uint(k*a.CellBits))
						continue
					}
					// Each weight-slice column reads out individually.
					s.readout(&led, float64(colSum), accum, c, ib)
				}
				if s.adder != nil {
					s.readout(&led, groupSum, accum, c, ib)
				}
			}
		}
	}
	res := &Result{
		Energy:      led.energy,
		ByComponent: map[string]float64{},
		MACs:        int64(s.steps) * int64(s.ibSlices) * int64(cols) * int64(wb) * int64(rows),
		Steps:       s.steps,
		Rows:        rows,
		LogicalCols: cols,
	}
	for i, hit := range led.hit {
		if hit {
			res.ByComponent[a.Levels[i].Name] = led.level[i]
		}
	}
	return res, nil
}

// column charges one weight-slice column's cell actions in row order and
// returns its integer sum. The running totals stay in locals and are
// written back once; every addition is the one charge makes, in the same
// order, so every bit matches. Adding a zero charge leaves a total as it
// was (no total is ever -0), so zeros are added rather than branched on.
func (s *simulation) column(led *ledger, ws, in, cellRow []int) int {
	ci := s.shape.computeIdx
	energy, total := led.energy, led.level[ci]
	// bits ORs the charges: its magnitude bits are nonzero iff some
	// charge is nonzero (or NaN).
	var bits uint64
	sum := 0
	in, cellRow = in[:len(ws)], cellRow[:len(ws)]
	if tab := s.cell.e; tab != nil {
		// run has filled the rows of every input slice level in use.
		for r, w := range ws {
			e := tab[cellRow[r]|w]
			energy += e
			total += e
			bits |= math.Float64bits(e)
			sum += in[r] * w
		}
	} else {
		for r, w := range ws {
			e := s.cell.f(cellRow[r] | w)
			energy += e
			total += e
			bits |= math.Float64bits(e)
			sum += in[r] * w
		}
	}
	led.energy, led.level[ci] = energy, total
	if bits&^(1<<63) != 0 {
		led.hit[ci] = true
	}
	return sum
}

// readout charges the output path of one column (or group) sum at one
// input slice: analog accumulation across input slices (Macro C) or
// immediate ADC conversion, followed by digital accumulation.
func (s *simulation) readout(led *ledger, sum float64, accum []float64, col, ib int) {
	sh := s.shape
	if s.accum != nil {
		accum[col] += sum * float64(int64(1)<<uint(ib*s.a.DACBits))
		led.charge(sh.accumIdx, s.accum.EnergyAt(0, 0, accum[col]))
		if ib == s.ibSlices-1 && s.adcAccum != nil {
			led.charge(sh.adcIdx, s.adcAccum.EnergyAt(0, 0, quantizeCode(accum[col], s.accumFull, s.adcBits)))
		}
		return
	}
	// Column and group sums are integers well inside float64's exact
	// range, so the lattice index is the sum itself.
	i := int(sum)
	if s.adc != nil {
		led.charge(sh.adcIdx, s.adc.at(i))
	}
	if s.shiftAdd != nil {
		led.charge(sh.shiftAddIdx, s.shiftAdd.at(i))
	}
}

// ledger totals the charged energy overall and per level, in charge order.
type ledger struct {
	energy float64
	level  []float64
	hit    []bool // the level has a nonzero charge
}

func (l *ledger) charge(idx int, joules float64) {
	if idx < 0 || joules == 0 {
		return
	}
	l.energy += joules
	l.level[idx] += joules
	l.hit[idx] = true
}

// lattice tabulates a per-action energy, a pure function of an integer
// operand in [0, len(e)), filling each point on its first use. Unfilled
// points hold NaN; a model that returns NaN is just called on every use.
// With e nil (the range is too wide to tabulate) every use calls f.
type lattice struct {
	e []float64
	f func(int) float64
}

func newLattice(points, macs int, f func(int) float64) *lattice {
	l := &lattice{f: f}
	if points <= macs {
		l.e = make([]float64, points)
		for i := range l.e {
			l.e[i] = math.NaN()
		}
	}
	return l
}

func (l *lattice) at(i int) float64 {
	if uint(i) < uint(len(l.e)) && !math.IsNaN(l.e[i]) {
		return l.e[i]
	}
	e := l.f(i)
	if uint(i) < uint(len(l.e)) {
		l.e[i] = e
	}
	return e
}

// adcBoundary returns the boundary index for the ADC full-scale.
func (s *macroShape) adcBoundary() int {
	if s.adcIdx >= 0 {
		return s.adcIdx + 1
	}
	return s.computeIdx
}

// shapeModelsSet carries the bound circuit models for the macro shape.
type shapeModelsSet struct {
	dac, cell, adc, adder, accumM, shiftAdd circuits.Model
}

func shapeModels(eng *core.Engine, s *macroShape) *shapeModelsSet {
	m := &shapeModelsSet{cell: eng.ComponentModel(s.computeIdx)}
	if s.dacIdx >= 0 {
		m.dac = eng.ComponentModel(s.dacIdx)
	}
	if s.adcIdx >= 0 {
		m.adc = eng.ComponentModel(s.adcIdx)
	}
	if s.adderIdx >= 0 {
		m.adder = eng.ComponentModel(s.adderIdx)
	}
	if s.accumIdx >= 0 {
		m.accumM = eng.ComponentModel(s.accumIdx)
	}
	if s.shiftAddIdx >= 0 {
		m.shiftAdd = eng.ComponentModel(s.shiftAddIdx)
	}
	return m
}

// quantizeCode maps an analog sum onto an ADC output code, matching the
// statistical model's quantization.
func quantizeCode(v, fullScale float64, bits int) float64 {
	if fullScale <= 0 {
		return 0
	}
	if v < 0 {
		v = 0
	}
	if v > fullScale {
		v = fullScale
	}
	return v / fullScale * float64(int64(1)<<uint(bits)-1)
}
