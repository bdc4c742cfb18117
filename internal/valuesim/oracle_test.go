package valuesim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/enc"
	"repro/internal/workload"
)

// simulateOracle is the reference for Simulate: the per-action loop, in
// which every action calls its circuit model and charges a string-keyed
// map. Simulate must match it bit for bit (TestSimulateMatchesOracle,
// FuzzSimulateMatchesOracle).
func simulateOracle(eng *core.Engine, layer workload.Layer, cfg Config) (*Result, *dist.PMF, *dist.PMF, error) {
	if cfg.Steps <= 0 {
		return nil, nil, nil, fmt.Errorf("valuesim: steps %d must be positive", cfg.Steps)
	}
	a := eng.Arch()
	shape, err := detectShape(a.Levels)
	if err != nil {
		return nil, nil, nil, err
	}
	wbSlices := a.WeightSlices()
	ibSlices := a.InputSlices()

	// Resolve where weight slices live: within an analog-added group
	// (Macro B), across separate logical columns (Base), or inside one
	// device (Macros C/D, wbSlices == 1).
	logicalCols := shape.physCols
	if shape.groupCols > 1 {
		if wbSlices > shape.groupCols {
			return nil, nil, nil, fmt.Errorf("valuesim: %d weight slices exceed %d grouped columns", wbSlices, shape.groupCols)
		}
	} else if wbSlices > 1 {
		if logicalCols%wbSlices != 0 {
			return nil, nil, nil, fmt.Errorf("valuesim: %d weight slices do not divide %d columns", wbSlices, logicalCols)
		}
		logicalCols /= wbSlices
	}

	ops, err := layer.SampleOperands(shape.rows, logicalCols, cfg.Steps, a.InputBits, a.WeightBits, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}

	inEnc, err := enc.ByName(a.ResolveInputEncoding(layer.Act.Signed), a.InputBits)
	if err != nil {
		return nil, nil, nil, err
	}
	wEnc, err := enc.ByName(a.ResolveWeightEncoding(), a.WeightBits)
	if err != nil {
		return nil, nil, nil, err
	}
	inSlicing, err := enc.NewSlicing(a.InputBits, a.DACBits)
	if err != nil {
		return nil, nil, nil, err
	}
	wSlicing, err := enc.NewSlicing(a.WeightBits, a.CellBits)
	if err != nil {
		return nil, nil, nil, err
	}

	// Pre-encode weights into per-slice cell values; record raw levels.
	wCells := make([][][]int, shape.rows) // [row][logicalCol][slice]
	wSamples := make([]float64, 0, shape.rows*logicalCols)
	for r := 0; r < shape.rows; r++ {
		wCells[r] = make([][]int, logicalCols)
		for c := 0; c < logicalCols; c++ {
			raw := ops.Weights[r][c]
			wSamples = append(wSamples, float64(raw))
			rails, err := wEnc.Encode(raw)
			if err != nil {
				return nil, nil, nil, err
			}
			slices := make([]int, wbSlices)
			for k := 0; k < wbSlices; k++ {
				slices[k] = wSlicing.SliceValue(rails[0], k)
			}
			wCells[r][c] = slices
		}
	}
	inSamples := make([]float64, 0, cfg.Steps*shape.rows)
	for t := range ops.Inputs {
		for _, v := range ops.Inputs[t] {
			inSamples = append(inSamples, float64(v))
		}
	}

	models := shapeModels(eng, shape)
	if models.cell == nil {
		return nil, nil, nil, errors.New("valuesim: no compute model bound")
	}
	res := &Result{
		ByComponent: map[string]float64{},
		Steps:       cfg.Steps,
		Rows:        shape.rows,
		LogicalCols: logicalCols,
	}
	adcFullScale := a.ColumnFullScale(shape.adcBoundary())
	adcBits := 8
	if adc, ok := models.adc.(*circuits.ADC); ok {
		adcBits = adc.Bits()
	}
	charge := func(idx int, joules float64) {
		if idx < 0 || joules == 0 {
			return
		}
		res.Energy += joules
		res.ByComponent[a.Levels[idx].Name] += joules
	}

	accum := make([]float64, logicalCols)
	inSlice := make([]int, shape.rows)
	for t := 0; t < cfg.Steps; t++ {
		for c := range accum {
			accum[c] = 0
		}
		for ib := 0; ib < ibSlices; ib++ {
			for r := 0; r < shape.rows; r++ {
				rails, err := inEnc.Encode(ops.Inputs[t][r])
				if err != nil {
					return nil, nil, nil, err
				}
				v := inSlicing.SliceValue(rails[0], ib)
				inSlice[r] = v
				if models.dac != nil {
					charge(shape.dacIdx, models.dac.EnergyAt(float64(v), 0, 0))
				}
			}
			for c := 0; c < logicalCols; c++ {
				groupSum := 0.0
				for k := 0; k < wbSlices; k++ {
					colSum := 0
					for r := 0; r < shape.rows; r++ {
						w := wCells[r][c][k]
						charge(shape.computeIdx, models.cell.EnergyAt(float64(inSlice[r]), float64(w), 0))
						colSum += inSlice[r] * w
						res.MACs++
					}
					if models.adder != nil {
						// The analog adder consumes each member column;
						// the group reads out once below.
						charge(shape.adderIdx, models.adder.EnergyAt(0, 0, float64(colSum)))
						groupSum += float64(colSum) * float64(int64(1)<<uint(k*a.CellBits))
						continue
					}
					// Each weight-slice column reads out individually.
					readoutOracle(res, charge, models, shape, a, adcBits, adcFullScale, float64(colSum), accum, c, ib, ibSlices)
				}
				if models.adder != nil {
					readoutOracle(res, charge, models, shape, a, adcBits, adcFullScale, groupSum, accum, c, ib, ibSlices)
				}
			}
		}
	}

	inPMF, err := dist.FromSamples(inSamples)
	if err != nil {
		return nil, nil, nil, err
	}
	wPMF, err := dist.FromSamples(wSamples)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, inPMF, wPMF, nil
}

// readoutOracle models the output path for one column sum at one input
// slice: analog accumulation across input slices (Macro C) or immediate
// ADC conversion, followed by digital accumulation.
func readoutOracle(res *Result, charge func(int, float64), m *shapeModelsSet, s *macroShape, a *core.Arch, adcBits int, adcFullScale, sum float64, accum []float64, col, ib, ibSlices int) {
	if m.accumM != nil {
		accum[col] += sum * float64(int64(1)<<uint(ib*a.DACBits))
		charge(s.accumIdx, m.accumM.EnergyAt(0, 0, accum[col]))
		if ib == ibSlices-1 && m.adc != nil {
			full := adcFullScale * (math.Exp2(float64(a.InputBits)) - 1) / (math.Exp2(float64(a.DACBits)) - 1)
			charge(s.adcIdx, m.adc.EnergyAt(0, 0, quantizeCode(accum[col], full, adcBits)))
		}
		return
	}
	if m.adc != nil {
		charge(s.adcIdx, m.adc.EnergyAt(0, 0, quantizeCode(sum, adcFullScale, adcBits)))
	}
	if m.shiftAdd != nil {
		charge(s.shiftAddIdx, m.shiftAdd.EnergyAt(0, 0, sum))
	}
}
