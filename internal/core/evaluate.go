package core

// The per-mapping half of Algorithm 1 (lines 8-10) is split along the
// same line as the count analysis in package mapping. A layer search
// compiles the layer's mapping.Plan once — the level list and the sliced
// einsum resolved into index tables — and gives every search worker its
// own mapping.Scratch. Each candidate then runs the cost-only kernel
// (costKernel): Plan.AnalyzeInto into the worker's Scratch, then price, which
// multiplies the counts by the LayerContext's per-action energies (stored
// per level as arrays indexed by tensor kind) and returns the energy
// scalar. With a warm Scratch the kernel allocates nothing. The full
// Result, with its per-level breakdown, is built once, for the winner, by
// the same price function, so the winner's Energy is bit for bit the
// number the search compared. price sums levels outermost first and
// tensors in tensor.Kind order, which makes every energy, and therefore
// every winner, independent of run, worker count and map iteration
// order. EvaluateMapping is the one-shot form: it compiles a Plan for its
// one mapping.

import (
	"context"
	"fmt"

	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// LevelEnergy is the energy attributed to one level for one layer.
type LevelEnergy struct {
	Name     string
	Class    string
	Kind     spec.LevelKind
	ByTensor map[tensor.Kind]float64
	Total    float64
}

// Result is the evaluation of one (layer, mapping) pair.
type Result struct {
	Arch    string
	Layer   string
	Mapping *mapping.Mapping

	Energy float64 // joules for the whole layer
	Levels []LevelEnergy

	Cycles      int64
	TimeSec     float64
	MACs        int64 // actual workload MACs (unsliced definition)
	PaddedMACs  int64 // hardware MAC-slice activations
	Utilization float64
	AreaUm2     float64
	// LeakageJ is the buffers' static energy over the layer runtime
	// (included in Energy).
	LeakageJ float64
	// DRAMLimited reports that off-chip bandwidth, not compute, set the
	// layer's runtime.
	DRAMLimited bool
}

// OPS returns the operation count (2 ops per MAC, the convention of the
// paper's TOPS/W and GOPS numbers).
func (r *Result) OPS() float64 { return 2 * float64(r.MACs) }

// TOPSPerW returns energy efficiency in tera-operations per watt.
func (r *Result) TOPSPerW() float64 {
	if r.Energy <= 0 {
		return 0
	}
	return r.OPS() / r.Energy / 1e12
}

// GOPS returns throughput in giga-operations per second.
func (r *Result) GOPS() float64 {
	if r.TimeSec <= 0 {
		return 0
	}
	return r.OPS() / r.TimeSec / 1e9
}

// EnergyPerMAC returns joules per actual MAC.
func (r *Result) EnergyPerMAC() float64 {
	if r.MACs == 0 {
		return 0
	}
	return r.Energy / float64(r.MACs)
}

// EvaluateMapping computes energy, cycles, and throughput of one mapping
// using the layer context's precomputed per-action energies (Algorithm 1
// lines 8–10: only the count analysis runs per mapping). It compiles the
// layer's count-analysis Plan for this one call; a mapping search compiles
// it once per layer instead (see SearchLayerOptsCtx).
func (e *Engine) EvaluateMapping(ctx *LayerContext, m *mapping.Mapping) (*Result, error) {
	plan, err := mapping.NewPlan(e.arch.Levels, ctx.Sliced)
	if err != nil {
		return nil, err
	}
	return e.evaluate(ctx, plan, new(mapping.Scratch), m)
}

// evaluate analyzes m with a compiled plan and builds its full Result.
func (e *Engine) evaluate(ctx *LayerContext, plan *mapping.Plan, s *mapping.Scratch, m *mapping.Mapping) (*Result, error) {
	counts, err := plan.AnalyzeInto(m, s)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Arch:        e.arch.Name,
		Layer:       ctx.Layer.Name,
		Mapping:     m,
		MACs:        ctx.Layer.Op.MACs(),
		PaddedMACs:  counts.MACs,
		Utilization: counts.Utilization,
		AreaUm2:     e.area,
		Levels:      make([]LevelEnergy, 0, len(e.bindings)),
	}
	e.price(ctx, counts, res)
	return res, nil
}

// costKernel returns the search's cost-only kernel for one layer: the
// layer energy of a mapping, with no Result built, analyzed into a
// Scratch the kernel owns. Once that Scratch has grown it allocates
// nothing. A kernel must not be called from two goroutines at once.
func (e *Engine) costKernel(ctx *LayerContext, plan *mapping.Plan) mapper.CostFunc {
	s := new(mapping.Scratch)
	return func(m *mapping.Mapping) (float64, error) {
		counts, err := plan.AnalyzeInto(m, s)
		if err != nil {
			return 0, err
		}
		return e.price(ctx, counts, nil), nil
	}
}

// price costs one mapping's counts with the layer's per-action energies
// and returns the layer energy. Levels are summed outermost first and
// tensors in tensor.Kind order, so equal counts always price to a
// bit-identical energy. With res nil only the energy is computed (the
// search's scalar); otherwise res also receives cycles, time, leakage and
// the per-level breakdown, and res.Energy is the returned number.
func (e *Engine) price(ctx *LayerContext, counts *mapping.Counts, res *Result) float64 {
	cycles := counts.Cycles * int64(e.arch.adcShare()) // ADC sharing serializes strobes
	timeSec := float64(cycles) / e.clock
	dramLimited := false
	// Off-chip bandwidth can cap throughput: a layer moving more DRAM
	// bits than the channel delivers in the compute time is DRAM-bound.
	for i := range e.bindings {
		b := &e.bindings[i]
		if b.dram == nil {
			continue
		}
		var bits float64
		for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
			if !counts.Has(i, t) {
				continue
			}
			tc := &counts.PerLevel[i][t]
			bits += float64(tc.Reads+tc.Writes) * e.valueBits(t)
		}
		if bw := b.dram.BandwidthBitsPerSec(); bw > 0 {
			if dramTime := bits / bw; dramTime > timeSec {
				timeSec = dramTime
				dramLimited = true
			}
		}
	}
	railsIn := float64(ctx.inputRails)
	railsW := float64(ctx.weightRails)

	var energy, leakJ float64
	for i := range e.bindings {
		b := &e.bindings[i]
		le := &ctx.energies[i]
		// Idle-instance factor: the mapping uses MappedOutside[i] of the
		// level's physical instances; the rest still fire every strobe
		// with zero-valued operands (an underutilized array's idle
		// columns still convert — the Fig. 2a/14 penalty). The factor is
		// capped at the column-mux depth: macros share one converter per
		// ~8 columns, so unmapped columns beyond a mux group never strobe.
		const muxCap = 7.0
		idlePerMapped := 0.0
		if mapped := counts.MappedOutside[i]; mapped > 0 && b.instances > mapped {
			idlePerMapped = float64(b.instances-mapped) / float64(mapped)
			if idlePerMapped > muxCap {
				idlePerMapped = muxCap
			}
		}
		idleE := 0.0
		if b.model != nil && idlePerMapped > 0 {
			idleE = b.model.EnergyAt(0, 0, 0)
		}
		var byKind [tensor.NumKinds]float64
		var charged uint8 // tensors with a ByTensor entry
		var total float64
		for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
			if !counts.Has(i, t) || !le.has(t) {
				continue
			}
			tc := &counts.PerLevel[i][t]
			ae := &le.byKind[t]
			var joules float64
			switch b.level.Kind {
			case spec.StorageLevel:
				joules = float64(tc.Reads)*ae.read + float64(tc.Writes)*ae.write
			case spec.TransitLevel:
				mult := railsW
				if t == tensor.Input {
					mult = railsIn
				}
				joules = float64(tc.Crossings) * (ae.cross*mult + idlePerMapped*idleE)
			case spec.ComputeLevel:
				if t == tensor.Weight {
					joules = float64(tc.Writes) * ae.write * railsW
				}
			}
			if joules != 0 {
				byKind[t] += joules
				charged |= 1 << uint(t)
				total += joules
			}
		}
		if b.level.Kind == spec.ComputeLevel {
			macE := le.byKind[tensor.Output].cross
			joules := float64(counts.MACs) * (macE*railsIn*railsW + idlePerMapped*idleE)
			byKind[tensor.Output] += joules
			charged |= 1 << uint(tensor.Output)
			total += joules
		}
		if b.buffer != nil && e.leakage > 0 {
			leak := b.buffer.LeakagePower() * float64(b.instances) * timeSec
			total += leak
			leakJ += leak
		}
		if res != nil {
			lv := LevelEnergy{
				Name:     b.level.Name,
				Class:    b.level.Class,
				Kind:     b.level.Kind,
				ByTensor: make(map[tensor.Kind]float64, tensor.NumKinds),
				Total:    total,
			}
			for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
				if charged&(1<<uint(t)) != 0 {
					lv.ByTensor[t] = byKind[t]
				}
			}
			res.Levels = append(res.Levels, lv)
		}
		energy += total
	}
	if res != nil {
		res.Cycles = cycles
		res.TimeSec = timeSec
		res.DRAMLimited = dramLimited
		res.LeakageJ = leakJ
		res.Energy = energy
	}
	return energy
}

// valueBits is the stored width of one value of tensor t.
func (e *Engine) valueBits(t tensor.Kind) float64 {
	switch t {
	case tensor.Weight:
		return float64(e.arch.WeightBits)
	case tensor.Output:
		return float64(e.arch.InputBits + e.arch.WeightBits)
	}
	return float64(e.arch.InputBits)
}

// GreedyMapping returns the architecture's deterministic utilization-
// greedy mapping for a prepared layer (used when a fixed, reproducible
// schedule is needed, e.g. to match the value-level simulator).
func (e *Engine) GreedyMapping(ctx *LayerContext) (*mapping.Mapping, error) {
	opts := e.arch.MapperOptions(1, 0)
	return mapper.Greedy(e.arch.Levels, ctx.Sliced, opts)
}

// SearchOptions bundles the per-layer mapping-search knobs.
type SearchOptions struct {
	// MaxMappings caps the candidate budget (<=0 selects the mapper's
	// default).
	MaxMappings int
	// Seed drives candidate sampling.
	Seed int64
	// SearchWorkers fans candidate cost evaluations across a bounded
	// worker pool; <= 1 keeps the serial path. The parallel search returns
	// bit-identical results (deterministic minimum-cost, lowest-index
	// winner), so the knob trades goroutines for single-request latency
	// without changing any answer.
	SearchWorkers int
	// SampleShards splits candidate *generation* across this many
	// independent seeded streams with a deterministic merge
	// (mapper.Options.Shards), lifting the serial-sampler ceiling on
	// SearchWorkers speedup. Unlike SearchWorkers, the shard count is part
	// of the result's identity: values > 1 sample a different (still
	// deterministic) candidate set, so results are reproducible only at
	// equal (Seed, SampleShards). <= 1 keeps today's single-stream
	// sequence.
	SampleShards int
}

// SearchLayer finds the lowest-energy mapping for a prepared layer,
// evaluating up to maxMappings candidates. It returns the best result and
// the number of mappings evaluated.
func (e *Engine) SearchLayer(ctx *LayerContext, maxMappings int, seed int64) (*Result, int, error) {
	return e.SearchLayerCtx(context.Background(), ctx, maxMappings, seed)
}

// SearchLayerCtx is SearchLayer under a context: the candidate loop
// checks for cancellation before each mapping evaluation, so a cancelled
// or expired context makes the search return ctx.Err() promptly instead
// of finishing the whole budget. Deadlines and job cancellation in the
// serving layer reach in-flight work through this path.
func (e *Engine) SearchLayerCtx(ctx context.Context, lctx *LayerContext, maxMappings int, seed int64) (*Result, int, error) {
	return e.SearchLayerOptsCtx(ctx, lctx, SearchOptions{MaxMappings: maxMappings, Seed: seed})
}

// SearchLayerOptsCtx is the full form of the per-layer search: the
// SearchOptions select the budget, seed, and intra-search parallelism.
// The layer's count-analysis Plan is compiled once; each candidate then
// runs the cost-only kernel (analysis into a reused Scratch plus pricing,
// no Result), and the Result is built once, for the winner. With
// SearchWorkers > 1 candidate evaluations fan across a worker pool
// (mapper.SearchParallelCtx), each worker with its own Scratch. Pricing
// sums in a fixed order, so the winner and its Result are bit-identical
// across runs and worker counts.
func (e *Engine) SearchLayerOptsCtx(ctx context.Context, lctx *LayerContext, so SearchOptions) (*Result, int, error) {
	plan, err := mapping.NewPlan(e.arch.Levels, lctx.Sliced)
	if err != nil {
		return nil, 0, err
	}
	opts := e.arch.MapperOptions(so.MaxMappings, so.Seed)
	if so.SampleShards > 1 {
		opts.Shards = so.SampleShards
	}
	newCost := func() mapper.CostFunc { return e.costKernel(lctx, plan) }
	best, evaluated, err := mapper.SearchParallelCtx(ctx, e.arch.Levels, lctx.Sliced, opts, so.SearchWorkers, newCost)
	if err != nil {
		return nil, 0, err
	}
	r, err := e.evaluate(lctx, plan, new(mapping.Scratch), best.Mapping)
	if err != nil {
		return nil, 0, err
	}
	return r, evaluated, nil
}

// EvaluateLayer prepares a layer and searches for its best mapping.
func (e *Engine) EvaluateLayer(l workload.Layer, maxMappings int, seed int64) (*Result, error) {
	return e.EvaluateLayerCtx(context.Background(), l, maxMappings, seed)
}

// EvaluateLayerCtx is EvaluateLayer under a context (see SearchLayerCtx).
func (e *Engine) EvaluateLayerCtx(ctx context.Context, l workload.Layer, maxMappings int, seed int64) (*Result, error) {
	r, _, err := e.EvaluateLayerOptsCtx(ctx, l, SearchOptions{MaxMappings: maxMappings, Seed: seed})
	return r, err
}

// EvaluateLayerOptsCtx prepares a layer and searches its mapping space
// with the full option set, additionally returning the number of mappings
// evaluated.
func (e *Engine) EvaluateLayerOptsCtx(ctx context.Context, l workload.Layer, so SearchOptions) (*Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	lctx, err := e.PrepareLayer(l)
	if err != nil {
		return nil, 0, err
	}
	return e.SearchLayerOptsCtx(ctx, lctx, so)
}

// NetworkResult aggregates per-layer best results over a whole network.
type NetworkResult struct {
	Arch     string
	Network  string
	PerLayer []*Result // best mapping per distinct layer
	// Energy and TimeSec include layer repeats.
	Energy  float64
	TimeSec float64
	MACs    int64
	AreaUm2 float64
	// MappingsEvaluated counts candidate mappings costed across all
	// layers (not scaled by repeats) — the search-throughput denominator.
	MappingsEvaluated int64
}

// TOPSPerW returns network-level energy efficiency.
func (n *NetworkResult) TOPSPerW() float64 {
	if n.Energy <= 0 {
		return 0
	}
	return 2 * float64(n.MACs) / n.Energy / 1e12
}

// GOPS returns network-level throughput.
func (n *NetworkResult) GOPS() float64 {
	if n.TimeSec <= 0 {
		return 0
	}
	return 2 * float64(n.MACs) / n.TimeSec / 1e9
}

// EnergyPerMAC returns network-average joules per MAC.
func (n *NetworkResult) EnergyPerMAC() float64 {
	if n.MACs == 0 {
		return 0
	}
	return n.Energy / float64(n.MACs)
}

// EvaluateNetwork searches the best mapping for every layer of a network
// and aggregates energy and time across repeats.
func (e *Engine) EvaluateNetwork(n *workload.Network, maxMappings int, seed int64) (*NetworkResult, error) {
	return e.EvaluateNetworkCtx(context.Background(), n, maxMappings, seed)
}

// EvaluateNetworkCtx is EvaluateNetwork under a context: cancellation is
// checked between layers and inside each layer's mapping search.
func (e *Engine) EvaluateNetworkCtx(ctx context.Context, n *workload.Network, maxMappings int, seed int64) (*NetworkResult, error) {
	return e.EvaluateNetworkOptsCtx(ctx, n, SearchOptions{MaxMappings: maxMappings, Seed: seed})
}

// EvaluateNetworkOptsCtx is EvaluateNetwork with the full option set:
// SearchWorkers > 1 fans each layer's candidate evaluations across a
// worker pool for single-request latency, with results bit-identical to
// the serial path (layer i still searches with Seed+i).
func (e *Engine) EvaluateNetworkOptsCtx(ctx context.Context, n *workload.Network, so SearchOptions) (*NetworkResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	out := &NetworkResult{Arch: e.arch.Name, Network: n.Name, AreaUm2: e.area}
	for i, l := range n.Layers {
		lso := so
		lso.Seed = so.Seed + int64(i)
		r, evaluated, err := e.EvaluateLayerOptsCtx(ctx, l, lso)
		if err != nil {
			return nil, fmt.Errorf("core: network %q layer %q: %w", n.Name, l.Name, err)
		}
		out.PerLayer = append(out.PerLayer, r)
		rep := float64(l.Repeat)
		out.Energy += r.Energy * rep
		out.TimeSec += r.TimeSec * rep
		out.MACs += r.MACs * int64(l.Repeat)
		out.MappingsEvaluated += int64(evaluated)
	}
	return out, nil
}
