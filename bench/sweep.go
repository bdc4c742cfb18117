package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/system"
	"repro/internal/workload"
)

// sweep-cold is the design-space sweep `cimloop sweeps run` performs: a
// grid of distinct design points on a fresh serve.Server, so every
// engine and layer context is compiled cold.
// PrepareLayer is almost all of the busy time and the mapping search a
// few percent — the reverse of explore-resnet18, so a setup optimization
// shows here and a search optimization must not. The grid is capped at
// 8 layers per network so one sweep fits a run on a 2-CPU host.
//
// Two benchmark goroutines take points from the grid in a seeded order
// and evaluate each with EvaluateCtx on the shared server, under a
// per-point span as SweepCtx's workers do, so that each can time the
// reference loop between its points (see speedometer).
var (
	sweepMacros    = []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim", "tpu-like", "photonic"}
	sweepScenarios = []string{"", system.AllDRAM.String(), system.WeightStationary.String(), system.OnChipIO.String()}
	sweepNetworks  = []string{"mobilenetv3-large", "transformer", "resnet18", "toy"}
)

const (
	sweepMappings = 8
	sweepLayers   = 8
	sweepWorkers  = 2
)

type sweep struct {
	grid []serve.Request
	// first holds the first untraced sweep's results and latencies by
	// grid index, the reference the traced replay must reproduce.
	first    []*serve.Result
	firstLat []float64
}

func startSweep(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var grid []serve.Request
	for _, m := range sweepMacros {
		for _, sc := range sweepScenarios {
			for _, n := range sweepNetworks {
				grid = append(grid, serve.Request{
					Macro: m, Scenario: sc, Network: n, Layers: sweepLayers,
					MaxMappings: sweepMappings, Seed: rng.Int63n(1 << 20),
				})
			}
		}
	}
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	if cfg.quick {
		grid = grid[:8]
	}
	return &sweep{grid: grid}, nil
}

func (s *sweep) close() {}

// sweepCanary covers macro-c, a system scenario and three networks.
var sweepCanary = []serve.Request{
	{Macro: "macro-c", Network: "toy", MaxMappings: sweepMappings, Seed: 1},
	{Macro: "base", Network: "resnet18", Scenario: system.WeightStationary.String(), Layers: sweepLayers, MaxMappings: sweepMappings, Seed: 2},
	{Macro: "digital-cim", Network: "mobilenetv3-large", Scenario: system.AllDRAM.String(), Layers: sweepLayers, MaxMappings: sweepMappings, Seed: 3},
	{Macro: "macro-d", Network: "transformer", Layers: 2, MaxMappings: sweepMappings, Seed: 4},
}

func (s *sweep) canary() (map[string]float64, error) {
	srv := serve.NewServer(serve.BatchOptions{Workers: sweepWorkers})
	defer srv.Close()
	res, err := srv.SweepCtx(context.Background(), sweepCanary, sweepWorkers, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, r := range res {
		if r == nil || r.Err != "" {
			return nil, fmt.Errorf("canary item failed: %+v", r)
		}
		out[r.Tag+".energy_j"] = r.EnergyJ
		out[r.Tag+".time_sec"] = r.TimeSec
		out[r.Tag+".macs"] = float64(r.MACs)
		out[r.Tag+".mappings_evaluated"] = float64(r.MappingsEvaluated)
	}
	return out, nil
}

// phases are the serve request phases the server's spans record.
var phases = []string{"queue", "cache", "compile", "search"}

// measure runs whole sweeps, each on a fresh server, while the next one
// is expected to end inside the window (always at least one). An op is
// one design point; its latency is the server's own evaluation time.
func (s *sweep) measure(cfg config, window time.Duration) (*windowResult, error) {
	w := newWindow(sweepWorkers)
	var sumLat float64
	phase := map[string]float64{}
	var hits, misses, compiles, evictions, blocked, plans uint64
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= window; n++ {
		t := time.Now()
		srv := serve.NewServer(serve.BatchOptions{Workers: sweepWorkers})
		res, done, by := s.run(srv, w.sps, phase)
		last = time.Since(t)
		cs, bs := srv.CacheStats(), srv.SearchStats()
		srv.Close()
		hits, misses, compiles, evictions = hits+cs.Hits, misses+cs.Misses, compiles+cs.Compiles, evictions+cs.Evictions
		blocked, plans = blocked+bs.BlockedAcquires, plans+bs.AdaptivePlans
		if n == 0 {
			s.first, s.firstLat = res, make([]float64, len(res))
		}
		for i, r := range res {
			w.attempted++
			if r.Err != "" {
				w.fail(fmt.Errorf("%s: %s", s.grid[i].Macro, r.Err))
				continue
			}
			if err := checkNetwork(r); err != nil {
				w.fail(err)
				continue
			}
			d := time.Duration(r.ElapsedSec * float64(time.Second))
			// The scenarios wrap the same macro around the same layers,
			// so a macro's four points on one network are one kind: they
			// take about the same time.
			w.op(by[i], s.grid[i].Macro+"/"+s.grid[i].Network, d, done[i])
			sumLat += r.ElapsedSec
			w.mappings += r.MappingsEvaluated
			if n == 0 {
				s.firstLat[i] = ms(d)
			}
		}
	}
	w.normalize(start)
	ops := float64(len(w.lat))
	for _, p := range phases {
		w.layer.set("serve."+p+"_frac", phase[p]/sumLat, "ratio")
		w.extra.set("serve."+p+"_s", phase[p], "s")
	}
	if hits+misses > 0 {
		w.layer.set("serve.cache.hit_frac", float64(hits)/float64(hits+misses), "ratio")
	}
	w.layer.set("serve.cache.compiles_per_op", float64(compiles)/ops, "count")
	w.layer.set("serve.cache.evictions_per_op", float64(evictions)/ops, "count")
	w.layer.set("serve.budget.blocked_per_op", float64(blocked)/ops, "count")
	w.layer.set("serve.search.adaptive_plans_per_op", float64(plans)/ops, "count")
	return w, nil
}

// run evaluates the grid on srv with one goroutine per speedometer, each
// timing the reference loop before every point. It returns the results
// by grid index, when each ended and which goroutine ran it, and adds
// the points' span phases to phase.
func (s *sweep) run(srv *serve.Server, sps []*speedometer, phase map[string]float64) ([]*serve.Result, []time.Time, []int) {
	res := make([]*serve.Result, len(s.grid))
	done := make([]time.Time, len(s.grid))
	by := make([]int, len(s.grid))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := range sps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.grid) {
					return
				}
				sps[g].sample()
				sp := obs.NewSpan("sweep-item")
				r, err := srv.EvaluateCtx(obs.ContextWith(context.Background(), sp), s.grid[i])
				if err != nil {
					r = &serve.Result{Tag: s.grid[i].Macro + "/" + s.grid[i].Network, Err: err.Error()}
				}
				res[i], done[i], by[i] = r, time.Now(), g
				mu.Lock()
				for _, p := range sp.Phases() {
					phase[p.Phase] += p.Seconds
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return res, done, by
}

// traced replays grid items serially, in the sweep's order, through the
// public calls serve makes for them: macros.ByName and system.Build,
// core.NewEngine, then per layer core.PrepareLayer and the mapping
// search. Each replayed design point must reproduce the untraced sweep's
// result (see sameResult).
func (s *sweep) traced(cfg config, window time.Duration, tr *tracer, _ *windowResult) (*layerTimes, error) {
	lt := &layerTimes{self: map[string]float64{}, extra: metrics{}}
	perMacro := map[string]float64{}
	var prep, fill []float64
	cands := 0
	start := time.Now()
	for op, req := range s.grid {
		if op > 0 && time.Since(start) >= window {
			break
		}
		root := tr.begin("op", op, 0)
		got, stats, err := s.replay(tr, op, root, req)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", op, err)
		}
		want := s.first[op]
		if want == nil || want.Err != "" {
			return nil, fmt.Errorf("op %d: no untraced result to reproduce", op)
		}
		if !sameResult(got, want) {
			return nil, fmt.Errorf("op %d (%s): traced energy %v time %v macs %d mappings %d != sweep's %v %v %d %d",
				op, want.Tag, got.EnergyJ, got.TimeSec, got.MACs, got.MappingsEvaluated,
				want.EnergyJ, want.TimeSec, want.MACs, want.MappingsEvaluated)
		}
		for _, p := range stats.prepare {
			prep = append(prep, p*1000)
			perMacro[req.Macro] += p
		}
		fill = append(fill, stats.fill...)
		cands += stats.cands
		lt.baseSeconds += s.firstLat[op] / 1000
		lt.ops++
	}
	t := tr.totals()
	searchLayerTimes(lt, t, cands)
	lt.self["system.build_self_frac"] = t["system.Build"]
	lt.self["core.engine_self_frac"] = t["core.NewEngine"]
	lt.self["core.prepare_self_frac"] = t["core.PrepareLayer"]
	lt.extra.set("mapper.fill_frac", mean(fill), "ratio")
	lt.extra.set("core.prepare_layer_ms_p50", median(prep), "ms")
	lt.extra.set("core.new_engine_s", t["core.NewEngine"], "s")
	for m, v := range perMacro {
		lt.extra.set("core.prepare_layer_s."+m, v, "s")
	}
	return lt, nil
}

// replayStats are the per-call numbers one replayed design point yields.
type replayStats struct {
	prepare []float64 // seconds per PrepareLayer call
	fill    []float64 // candidates sampled / budget, per layer
	cands   int
}

// replay evaluates one design point the way serve.Server.EvaluateCtx
// does, without the cache, accumulating the network result in the same
// order.
func (s *sweep) replay(tr *tracer, op, parent int, req serve.Request) (*serve.Result, *replayStats, error) {
	st := &replayStats{}
	id := tr.begin("system.Build", op, parent)
	arch, err := macros.ByName(req.Macro)
	if err == nil && req.Scenario != "" {
		var sc system.Scenario
		sc, err = scenarioByName(req.Scenario)
		if err == nil {
			arch, err = system.Build(arch, sc, system.Config{Macros: 1})
		}
	}
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("core.NewEngine", op, parent)
	eng, err := core.NewEngine(arch)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	net, err := workload.ByName(req.Network)
	if err != nil {
		return nil, nil, err
	}
	layers := net.Layers
	if req.Layers > 0 && req.Layers < len(layers) {
		layers = layers[:req.Layers]
	}
	nr := &core.NetworkResult{}
	for i, l := range layers {
		id = tr.begin("core.PrepareLayer", op, parent)
		lctx, err := eng.PrepareLayer(l)
		st.prepare = append(st.prepare, tr.end(id))
		if err != nil {
			return nil, nil, err
		}
		r, evaluated, n, err := tracedSearch(tr, op, parent, eng, lctx, req.MaxMappings, req.Seed+int64(i))
		if err != nil {
			return nil, nil, fmt.Errorf("layer %s: %w", l.Name, err)
		}
		st.fill = append(st.fill, float64(n)/float64(req.MaxMappings))
		st.cands += n
		rep := float64(l.Repeat)
		nr.Energy += r.Energy * rep
		nr.TimeSec += r.TimeSec * rep
		nr.MACs += r.MACs * int64(l.Repeat)
		nr.MappingsEvaluated += int64(evaluated)
	}
	return &serve.Result{EnergyJ: nr.Energy, TimeSec: nr.TimeSec, MACs: nr.MACs, MappingsEvaluated: nr.MappingsEvaluated}, st, nil
}

// sameResult reports whether two evaluations agree on energy and time
// to goldenTol and on MACs and mapping count exactly. Energies are not
// compared bit for bit: core.EvaluateMapping sums per-tensor energies in
// map iteration order, so repeated evaluations differ in the last bits.
func sameResult(a, b *serve.Result) bool {
	return withinTol(a.EnergyJ, b.EnergyJ) && withinTol(a.TimeSec, b.TimeSec) &&
		a.MACs == b.MACs && a.MappingsEvaluated == b.MappingsEvaluated
}

// scenarioByName parses a Fig. 15 scenario name as Scenario.String
// prints it.
func scenarioByName(name string) (system.Scenario, error) {
	for _, sc := range []system.Scenario{system.AllDRAM, system.WeightStationary, system.OnChipIO} {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scenario %q", name)
}
