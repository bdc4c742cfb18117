package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// explore-resnet18 is the Table II inner loop: ResNet18's layers are
// prepared once in setup, then every op is one serial mapping search of
// one layer. Sampling, count analysis and costing do all the work;
// PrepareLayer, serve and valuesim do none.
const exploreMappings = 256

type explore struct {
	eng   *core.Engine
	ctxs  []*core.LayerContext
	names []string // layer names, the ops' kinds
	// energy and lat are the untraced ops' winner energies and latencies
	// in op order, the reference the traced replay must reproduce to
	// goldenTol (see sameResult).
	energy []float64
	lat    []float64
}

func startExplore(cfg config) (instance, error) {
	arch, err := macros.ByName("base")
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	x := &explore{eng: eng}
	for _, l := range workload.ResNet18().Layers {
		lctx, err := eng.PrepareLayer(l)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", l.Name, err)
		}
		x.ctxs = append(x.ctxs, lctx)
		x.names = append(x.names, l.Name)
	}
	return x, nil
}

func (x *explore) close() {}

func (x *explore) search(i int, seed int64) (*core.Result, int, error) {
	return x.eng.SearchLayerOptsCtx(context.Background(), x.ctxs[i], core.SearchOptions{
		MaxMappings: exploreMappings, Seed: seed, SearchWorkers: 1,
	})
}

func (x *explore) canary() (map[string]float64, error) {
	out := map[string]float64{}
	for _, i := range []int{0, 10, 20} {
		r, n, err := x.search(i, 1)
		if err != nil {
			return nil, err
		}
		k := fmt.Sprintf("layer%d.", i)
		out[k+"energy_j"] = r.Energy
		out[k+"cycles"] = float64(r.Cycles)
		out[k+"evaluated"] = float64(n)
	}
	return out, nil
}

// eachOp runs whole passes over the layers, one op per layer with a seed
// drawn from cfg.seed, until the window has passed (at least one pass)
// or fn returns false.
func (x *explore) eachOp(cfg config, window time.Duration, fn func(op, layer int, seed int64) bool) time.Duration {
	rng := rand.New(rand.NewSource(cfg.seed))
	start := time.Now()
	op := 0
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		for i := range x.ctxs {
			if !fn(op, i, rng.Int63()) {
				return time.Since(start)
			}
			op++
		}
	}
	return time.Since(start)
}

func (x *explore) measure(cfg config, window time.Duration) (*windowResult, error) {
	w := newWindow(1)
	x.energy, x.lat = x.energy[:0], x.lat[:0]
	start := time.Now()
	x.eachOp(cfg, window, func(op, i int, seed int64) bool {
		w.sps[0].sample()
		t := time.Now()
		r, n, err := x.search(i, seed)
		d := time.Since(t)
		w.attempted++
		if err == nil {
			err = checkResult(r)
		}
		if err != nil {
			w.fail(err)
			x.energy = append(x.energy, math.NaN())
			x.lat = append(x.lat, ms(d))
			return true
		}
		w.op(0, x.names[i], d, t.Add(d))
		w.mappings += int64(n)
		x.energy = append(x.energy, r.Energy)
		x.lat = append(x.lat, ms(d))
		return true
	})
	w.normalize(start)
	return w, nil
}

func (x *explore) traced(cfg config, window time.Duration, tr *tracer, _ *windowResult) (*layerTimes, error) {
	lt := &layerTimes{self: map[string]float64{}, extra: metrics{}}
	var fill []float64
	var firstErr error
	cands := 0
	x.eachOp(cfg, window, func(op, i int, seed int64) bool {
		if op >= len(x.energy) {
			return false
		}
		root := tr.begin("op", op, 0)
		best, _, n, err := tracedSearch(tr, op, root, x.eng, x.ctxs[i], exploreMappings, seed)
		tr.end(root)
		if err == nil && !withinTol(best.Energy, x.energy[op]) {
			err = fmt.Errorf("op %d: traced winner energy %v != untraced %v", op, best.Energy, x.energy[op])
		}
		if err != nil {
			firstErr = err
			return false
		}
		fill = append(fill, float64(n)/exploreMappings)
		cands += n
		lt.baseSeconds += x.lat[op] / 1000
		lt.ops++
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	searchLayerTimes(lt, tr.totals(), cands)
	lt.extra.set("mapper.fill_frac", mean(fill), "ratio")
	return lt, nil
}

// searchLayerTimes attributes tracedSearch spans to layers: the
// standalone Analyze is the count-analysis share of EvaluateMapping, and
// it is excluded from the op time because the untraced op does not run
// it. It also sets the per-candidate costs over cands candidates.
func searchLayerTimes(lt *layerTimes, t map[string]float64, cands int) {
	sample, analyze, eval := t["mapper.Sample"], t["mapping.Analyze"], t["core.EvaluateMapping"]
	lt.self["mapper.self_frac"] += sample
	lt.self["mapping.self_frac"] += analyze
	lt.self["core.cost_self_frac"] += eval - analyze
	lt.opSeconds = t["op"] - analyze
	if cands > 0 {
		n := float64(cands) / 1e6
		lt.extra.set("mapper.sample_us_per_cand", sample/n, "us")
		lt.extra.set("mapping.analyze_us_per_call", analyze/n, "us")
		lt.extra.set("core.cost_self_us_per_call", (eval-analyze)/n, "us")
		lt.extra.set("core.evaluate_mapping_us_per_call", eval/n, "us")
	}
}

// tracedSearch replays the serial path of core.Engine.SearchLayerOptsCtx
// — mapper.Sample, then every candidate costed in order, keeping the
// first strictly cheaper result, skipping candidates that fail — with a
// span around each call. Before each EvaluateMapping it also times
// mapping.Analyze on the same candidate: EvaluateMapping runs that
// analysis inside, so the standalone call splits EvaluateMapping's time
// into count analysis and costing.
func tracedSearch(tr *tracer, op, parent int, eng *core.Engine, lctx *core.LayerContext, maxMappings int, seed int64) (*core.Result, int, int, error) {
	arch := eng.Arch()
	id := tr.begin("mapper.Sample", op, parent)
	cands, err := mapper.Sample(arch.Levels, lctx.Sliced, arch.MapperOptions(maxMappings, seed))
	tr.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	var best *core.Result
	var firstErr error
	evaluated := 0
	for _, m := range cands {
		id = tr.begin("mapping.Analyze", op, parent)
		_, aerr := mapping.Analyze(arch.Levels, lctx.Sliced, m)
		tr.end(id)
		id = tr.begin("core.EvaluateMapping", op, parent)
		r, err := eng.EvaluateMapping(lctx, m)
		tr.end(id)
		if (aerr == nil) != (err == nil) {
			return nil, 0, 0, fmt.Errorf("Analyze error %v but EvaluateMapping error %v", aerr, err)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		evaluated++
		if best == nil || r.Energy < best.Energy {
			best = r
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, 0, 0, firstErr
		}
		return nil, 0, 0, errors.New("no valid mapping found")
	}
	return best, evaluated, len(cands), checkResult(best)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
