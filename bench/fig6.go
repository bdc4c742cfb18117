package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/mapping"
	"repro/internal/tensor"
	"repro/internal/valuesim"
	"repro/internal/workload"
)

// fig6-accuracy is Fig. 6 at full size: every op compares the
// statistical model with the value-level simulator on one ResNet18 layer
// of the 64x32 value-aware base macro. The value-level reference
// dominates and there is no mapper search; the errors it measures must
// stay unchanged beside any speed-up.
const fig6Steps = 32

type fig6 struct {
	eng    *core.Engine
	layers []workload.Layer
	// rel and lat are the untraced ops' relative errors and latencies in
	// op order, the reference the traced replay must reproduce.
	rel []float64
	lat []float64
}

func startFig6(cfg config) (instance, error) {
	arch, err := macros.Base(macros.Config{Rows: 64, Cols: 32, ValueAwareADC: true})
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	return &fig6{eng: eng, layers: workload.ResNet18().Layers}, nil
}

func (f *fig6) close() {}

func (f *fig6) canary() (map[string]float64, error) {
	out := map[string]float64{}
	for _, i := range []int{0, 5, 20} {
		c, err := valuesim.Compare(f.eng, f.layers[i], valuesim.Config{Steps: fig6Steps, Seed: 17}, nil, nil)
		if err != nil {
			return nil, err
		}
		k := fmt.Sprintf("layer%d.", i)
		out[k+"rel_error"] = c.RelError
		out[k+"sim_energy_j"] = c.SimEnergy
		out[k+"stat_energy_j"] = c.StatEnergy
	}
	return out, nil
}

// eachOp runs whole passes over the layers, one op per layer with a
// simulation seed drawn from cfg.seed, until the window has passed (at
// least one pass) or fn returns false.
func (f *fig6) eachOp(cfg config, window time.Duration, fn func(op int, l workload.Layer, seed int64) bool) time.Duration {
	rng := rand.New(rand.NewSource(cfg.seed))
	start := time.Now()
	op := 0
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		for _, l := range f.layers {
			if !fn(op, l, rng.Int63()) {
				return time.Since(start)
			}
			op++
		}
	}
	return time.Since(start)
}

func (f *fig6) measure(cfg config, window time.Duration) (*windowResult, error) {
	w := newWindow(1)
	f.rel, f.lat = f.rel[:0], f.lat[:0]
	var rels []float64
	start := time.Now()
	f.eachOp(cfg, window, func(op int, l workload.Layer, seed int64) bool {
		w.sps[0].sample()
		t := time.Now()
		c, err := valuesim.Compare(f.eng, l, valuesim.Config{Steps: fig6Steps, Seed: seed}, nil, nil)
		d := time.Since(t)
		w.attempted++
		if err == nil {
			err = checkComparison(c)
		}
		f.lat = append(f.lat, ms(d))
		if err != nil {
			w.fail(fmt.Errorf("%s: %w", l.Name, err))
			f.rel = append(f.rel, math.NaN())
			return true
		}
		w.op(0, l.Name, d, t.Add(d))
		w.mappings++ // the statistical side costs one (greedy) mapping
		f.rel = append(f.rel, c.RelError)
		rels = append(rels, c.RelError)
		return true
	})
	w.normalize(start)
	if len(rels) > 0 {
		maxRel := 0.0
		for _, r := range rels {
			maxRel = math.Max(maxRel, r)
		}
		w.layer.set("valuesim.err_mean_pct", 100*mean(rels), "%")
		w.layer.set("valuesim.err_max_pct", 100*maxRel, "%")
	}
	return w, nil
}

func checkComparison(c *valuesim.Comparison) error {
	if math.IsNaN(c.RelError) || math.IsInf(c.RelError, 0) {
		return fmt.Errorf("relative error %v is not finite", c.RelError)
	}
	return checkResult(c.Stat)
}

func (f *fig6) traced(cfg config, window time.Duration, tr *tracer, _ *windowResult) (*layerTimes, error) {
	lt := &layerTimes{self: map[string]float64{}, extra: metrics{}}
	var sim, prep []float64
	var firstErr error
	f.eachOp(cfg, window, func(op int, l workload.Layer, seed int64) bool {
		if op >= len(f.rel) {
			return false
		}
		root := tr.begin("op", op, 0)
		rel, simS, prepS, err := f.tracedCompare(tr, op, root, l, seed)
		tr.end(root)
		if err == nil && !withinTol(rel, f.rel[op]) {
			err = fmt.Errorf("op %d (%s): traced relative error %v != Compare's %v", op, l.Name, rel, f.rel[op])
		}
		if err != nil {
			firstErr = err
			return false
		}
		sim = append(sim, simS*1000)
		prep = append(prep, prepS*1000)
		lt.baseSeconds += f.lat[op] / 1000
		lt.ops++
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	t := tr.totals()
	analyze := t["mapping.Analyze"]
	lt.self["valuesim.self_frac"] = t["valuesim.Simulate"]
	lt.self["core.prepare_self_frac"] = t["core.PrepareLayerWithPMFs"]
	lt.self["mapper.self_frac"] = t["core.GreedyMapping"]
	lt.self["mapping.self_frac"] = analyze
	lt.self["core.cost_self_frac"] = t["core.EvaluateMapping"] - analyze
	lt.opSeconds = t["op"] - analyze
	lt.extra.set("valuesim.simulate_ms_p50", median(sim), "ms")
	lt.extra.set("core.prepare_layer_with_pmfs_ms_p50", median(prep), "ms")
	return lt, nil
}

// tracedCompare replays valuesim.Compare call by call with a span around
// each, and returns the relative error computed exactly as Compare does,
// plus the Simulate and PrepareLayerWithPMFs durations.
func (f *fig6) tracedCompare(tr *tracer, op, parent int, l workload.Layer, seed int64) (float64, float64, float64, error) {
	id := tr.begin("valuesim.Simulate", op, parent)
	sim, inPMF, wPMF, err := valuesim.Simulate(f.eng, l, valuesim.Config{Steps: fig6Steps, Seed: seed})
	simS := tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	matchedOp, err := tensor.MatMul(l.Name+"+matched", sim.Steps, sim.Rows, sim.LogicalCols)
	if err != nil {
		return 0, 0, 0, err
	}
	matched := l
	matched.Op = matchedOp
	id = tr.begin("core.PrepareLayerWithPMFs", op, parent)
	lctx, err := f.eng.PrepareLayerWithPMFs(matched, inPMF, wPMF)
	prepS := tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	id = tr.begin("core.GreedyMapping", op, parent)
	m, err := f.eng.GreedyMapping(lctx)
	tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	arch := f.eng.Arch()
	id = tr.begin("mapping.Analyze", op, parent)
	_, err = mapping.Analyze(arch.Levels, lctx.Sliced, m)
	tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	id = tr.begin("core.EvaluateMapping", op, parent)
	stat, err := f.eng.EvaluateMapping(lctx, m)
	tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	statE := 0.0
	for _, le := range stat.Levels {
		if _, ok := sim.ByComponent[le.Name]; !ok {
			continue
		}
		e := le.Total
		if le.Kind.String() == "compute" {
			e -= le.ByTensor[tensor.Weight]
		}
		statE += e
	}
	rel := 0.0
	if sim.Energy > 0 {
		rel = math.Abs(statE-sim.Energy) / sim.Energy
	}
	return rel, simS, prepS, nil
}
