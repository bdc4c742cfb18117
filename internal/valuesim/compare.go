package valuesim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Comparison is an accuracy measurement of the statistical model against
// the value-level ground truth for one layer (one bar of Fig. 6).
type Comparison struct {
	Sim  *Result
	Stat *core.Result
	// InPMF and WPMF are the simulator's empirical operand PMFs.
	InPMF, WPMF *dist.PMF
	// SimEnergy and StatEnergy are compute-path macro energies.
	SimEnergy  float64
	StatEnergy float64
	// RelError is |stat - sim| / sim.
	RelError float64
	// PerComponent maps component names to (sim, stat) energies.
	PerComponent map[string][2]float64
}

// Compare simulates a layer at value level, then evaluates the statistical
// model on exactly the same matrix-vector operation — same schedule (the
// deterministic greedy mapping), same empirical operand marginals (the
// simulator's recorded PMFs), same circuit models — and reports the energy
// disagreement, which isolates the statistical approximation (independent
// distributions + mapping-invariant per-action energy).
//
// Passing a non-nil pmfOverride pair evaluates the statistical side with
// those distributions instead of the empirical ones: supplying
// network-global average PMFs reproduces the paper's non-data-value-
// dependent fixed-energy comparator.
func Compare(eng *core.Engine, layer workload.Layer, cfg Config, inOverride, wOverride *dist.PMF) (*Comparison, error) {
	sim, inPMF, wPMF, err := Simulate(eng, layer, cfg)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{Sim: sim, InPMF: inPMF, WPMF: wPMF}
	if inOverride != nil {
		inPMF = inOverride
	}
	if wOverride != nil {
		wPMF = wOverride
	}
	return cmp.WithPMFs(eng, layer, inPMF, wPMF)
}

// WithPMFs evaluates the statistical side of c again with other operand
// PMFs (for example Fig. 6's network-global averages) against the same
// simulation, which it reuses rather than repeats. eng and layer must be
// the ones c was simulated with.
func (c *Comparison) WithPMFs(eng *core.Engine, layer workload.Layer, inPMF, wPMF *dist.PMF) (*Comparison, error) {
	sim := c.Sim
	// The matched operation: steps input vectors through a rows x cols
	// array.
	op, err := tensor.MatMul(layer.Name+"+matched", sim.Steps, sim.Rows, sim.LogicalCols)
	if err != nil {
		return nil, err
	}
	matched := layer
	matched.Op = op

	ctx, err := eng.PrepareLayerWithPMFs(matched, inPMF, wPMF)
	if err != nil {
		return nil, err
	}
	m, err := eng.GreedyMapping(ctx)
	if err != nil {
		return nil, err
	}
	stat, err := eng.EvaluateMapping(ctx, m)
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{Sim: sim, Stat: stat, InPMF: c.InPMF, WPMF: c.WPMF, PerComponent: map[string][2]float64{}}
	cmp.SimEnergy = sim.Energy
	for _, le := range stat.Levels {
		simE, inSim := sim.ByComponent[le.Name]
		if !inSim {
			continue
		}
		statE := le.Total
		if le.Kind.String() == "compute" {
			// Exclude one-time weight programming: the simulator charges
			// the steady-state compute path only.
			statE -= le.ByTensor[tensor.Weight]
		}
		cmp.StatEnergy += statE
		cmp.PerComponent[le.Name] = [2]float64{simE, statE}
	}
	if cmp.SimEnergy > 0 {
		cmp.RelError = math.Abs(cmp.StatEnergy-cmp.SimEnergy) / cmp.SimEnergy
	}
	return cmp, nil
}

// AveragePMFs merges per-layer empirical PMFs into one network-global
// distribution pair: the information a fixed-energy model would use
// (paper §IV-A, "data values averaged over all layers").
func AveragePMFs(ins, ws []*dist.PMF) (*dist.PMF, *dist.PMF, error) {
	if len(ins) == 0 || len(ins) != len(ws) {
		return nil, nil, fmt.Errorf("valuesim: mismatched PMF lists (%d, %d)", len(ins), len(ws))
	}
	avg := func(ps []*dist.PMF) (*dist.PMF, error) {
		out := ps[0]
		for i := 1; i < len(ps); i++ {
			var err error
			out, err = dist.Mix(out, ps[i], float64(i)/float64(i+1))
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	ai, err := avg(ins)
	if err != nil {
		return nil, nil, err
	}
	aw, err := avg(ws)
	if err != nil {
		return nil, nil, err
	}
	return ai, aw, nil
}
