package core

// The per-mapping half of Algorithm 1 (lines 8-10) is split along the
// same line as the count analysis in package mapping. A layer search
// compiles the layer's mapping.Plan once, in pooled memory — the level
// list and the sliced einsum resolved into index tables — and
// mapper.Search keeps every candidate in index space from draw to price:
// the sampler draws (dim index, factor) loops, Plan.LoadIndexed checks
// them once and lays them out in the search's mapping.Scratch, folding
// each level's loops per tensor, and the cost-only kernel (costKernel)
// prices that Scratch: Plan.AnalyzeLoaded, whose counts are products of
// the per-level folds, then price, which multiplies the counts by the
// LayerContext's per-action energies (stored per level as arrays indexed
// by tensor kind) and returns the energy scalar. The kernel is a
// branch-and-bound: level 0 is counted and priced first, and a candidate
// whose level 0 alone already costs more than the best so far is priced
// no further, which cannot change the winner. Dim names are written only
// when a candidate becomes the new best. With a warm Scratch the kernel
// allocates nothing. The full Result, with its per-level breakdown (an
// array per level, indexed by tensor kind), is built once, for the
// winner, by the same price function, so the winner's Energy is bit for
// bit the number the search compared. price sums levels outermost first
// and tensors in tensor.Kind order, which makes every energy, and
// therefore every winner, independent of run and worker count.
// EvaluateMapping is the one-shot form: it compiles a Plan for its one
// mapping and analyzes it with AnalyzeInto.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// LevelEnergy is the energy attributed to one level for one layer.
type LevelEnergy struct {
	Name  string
	Class string
	Kind  spec.LevelKind
	// ByTensor is the level's energy charged to each tensor, indexed by
	// tensor.Kind; a tensor the level charges nothing reads 0.
	ByTensor [tensor.NumKinds]float64
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
// layer's count-analysis Plan for this one call, in pooled memory; a
// mapping search compiles it once per layer instead (see
// SearchLayerOptsCtx).
func (e *Engine) EvaluateMapping(ctx *LayerContext, m *mapping.Mapping) (*Result, error) {
	mem := analysisMems.Get().(*analysisMem)
	defer analysisMems.Put(mem)
	if err := mem.plan.Compile(e.arch.Levels, ctx.Sliced); err != nil {
		return nil, err
	}
	return e.evaluate(ctx, &mem.plan, &mem.scratch, m)
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
// layer energy of the candidate mapper.Search has validated and laid out
// in the Scratch it is given, with no Result built, or, when the
// candidate cannot beat the bound it is given, a number above the bound
// and at most that energy (mapper.CostFunc's contract). price sums the
// level totals outermost first from 0, and when every total is
// non-negative (boundable) adding one never lowers the sum, so level 0's
// total alone is at most the energy: the kernel counts level 0 first
// (Plan.AnalyzeLevel0) and returns its total, priced by price's own
// per-level body, when that already exceeds the bound. Otherwise it
// finishes the counts and prices every level. Once the Scratch has grown
// it allocates nothing. It reads the engine and the layer context only,
// so it may price different Scratches from several goroutines at once.
func (e *Engine) costKernel(ctx *LayerContext, plan *mapping.Plan) mapper.CostFunc {
	if !e.boundable(ctx) {
		return func(s *mapping.Scratch, _ float64) (float64, error) {
			return e.price(ctx, plan.AnalyzeLoaded(s), nil), nil
		}
	}
	return func(s *mapping.Scratch, bound float64) (float64, error) {
		if v := e.level0Total(ctx, plan, s); v > bound {
			return v, nil
		}
		return e.price(ctx, plan.AnalyzeLoaded(s), nil), nil
	}
}

// level0Total counts level 0 of the candidate laid out in s and returns
// its total, the number price reports as the Result's Levels[0].Total.
// The runtime it prices leakage over reads level 0's counts only, so it
// is the full runtime when no DRAM level lies below level 0.
func (e *Engine) level0Total(ctx *LayerContext, plan *mapping.Plan, s *mapping.Scratch) float64 {
	c := plan.AnalyzeLevel0(s)
	_, timeSec, _ := e.runtime(c, 1)
	_, total, _ := e.levelEnergy(ctx, c, 0, timeSec)
	return total
}

// boundable reports whether the cost kernel may stop at level 0 for
// ctx: level 0 is a storage level, no DRAM level lies below it (the
// runtime, and with it level 0's leakage, reads the counts of every DRAM
// level), and every number price multiplies counts by is finite and
// non-negative (per-action, idle and MAC energies, leakage powers and
// the clock; rail counts are positive in every context), so that every
// level total is non-negative too.
func (e *Engine) boundable(ctx *LayerContext) bool {
	if len(e.bindings) == 0 || e.bindings[0].level.Kind != spec.StorageLevel {
		return false
	}
	ok := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) } // false for NaN
	if !ok(e.clock) || e.clock == 0 {
		return false
	}
	for i := range e.bindings {
		b := &e.bindings[i]
		if i > 0 && b.dram != nil || !ok(b.idleEnergy) || b.buffer != nil && !ok(b.buffer.LeakagePower()) {
			return false
		}
		for _, ae := range ctx.energies[i].byKind {
			if !ok(ae.read) || !ok(ae.write) || !ok(ae.cross) {
				return false
			}
		}
	}
	return true
}

// price costs one mapping's counts with the layer's per-action energies
// and returns the layer energy: the runtime, then every level's total
// (levelEnergy), summed outermost first. Tensors are summed in
// tensor.Kind order, so equal counts always price to a bit-identical
// energy. With res nil only the energy is computed (the search's
// scalar); otherwise res also receives cycles, time, leakage and the
// per-level breakdown, and res.Energy is the returned number.
func (e *Engine) price(ctx *LayerContext, counts *mapping.Counts, res *Result) float64 {
	cycles, timeSec, dramLimited := e.runtime(counts, len(e.bindings))
	var energy, leakJ float64
	for i := range e.bindings {
		byKind, total, leak := e.levelEnergy(ctx, counts, i, timeSec)
		leakJ += leak
		if res != nil {
			b := &e.bindings[i]
			res.Levels = append(res.Levels, LevelEnergy{
				Name:     b.level.Name,
				Class:    b.level.Class,
				Kind:     b.level.Kind,
				ByTensor: byKind,
				Total:    total,
			})
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

// runtime returns a mapping's cycles and runtime and whether off-chip
// bandwidth, not compute, set the runtime: a layer moving more DRAM bits
// than the channel delivers in the compute time is DRAM-bound. It reads
// the counts of the DRAM levels among the first levels levels only.
func (e *Engine) runtime(counts *mapping.Counts, levels int) (cycles int64, timeSec float64, dramLimited bool) {
	cycles = counts.Cycles * int64(e.arch.adcShare()) // ADC sharing serializes strobes
	timeSec = float64(cycles) / e.clock
	for i := range e.bindings[:levels] {
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
	return cycles, timeSec, dramLimited
}

// levelEnergy prices level i of a mapping's counts over a runtime of
// timeSec: the level's energy charged to each tensor, its total (which
// includes its leakage) and its leakage.
func (e *Engine) levelEnergy(ctx *LayerContext, counts *mapping.Counts, i int, timeSec float64) (byKind [tensor.NumKinds]float64, total, leak float64) {
	b := &e.bindings[i]
	le := &ctx.energies[i]
	railsIn := float64(ctx.inputRails)
	railsW := float64(ctx.weightRails)
	// Idle-instance factor: the mapping uses MappedOutside[i] of the
	// level's physical instances; the rest still fire every strobe with
	// zero-valued operands (an underutilized array's idle columns still
	// convert — the Fig. 2a/14 penalty). The factor is capped at the
	// column-mux depth: macros share one converter per ~8 columns, so
	// unmapped columns beyond a mux group never strobe.
	const muxCap = 7.0
	idlePerMapped := 0.0
	if mapped := counts.MappedOutside[i]; mapped > 0 && b.instances > mapped {
		idlePerMapped = float64(b.instances-mapped) / float64(mapped)
		if idlePerMapped > muxCap {
			idlePerMapped = muxCap
		}
	}
	idleE := 0.0
	if idlePerMapped > 0 {
		idleE = b.idleEnergy
	}
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
			total += joules
		}
	}
	if b.level.Kind == spec.ComputeLevel {
		macE := le.byKind[tensor.Output].cross
		joules := float64(counts.MACs) * (macE*railsIn*railsW + idlePerMapped*idleE)
		byKind[tensor.Output] += joules
		total += joules
	}
	if b.buffer != nil && e.leakage > 0 {
		leak = b.buffer.LeakagePower() * float64(b.instances) * timeSec
		total += leak
	}
	return byKind, total, leak
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
	opts := e.mapperOpts
	opts.MaxMappings = 1
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
	// winner). One goroutine still generates and copies every candidate,
	// so a width gains at most the ratio of a serial candidate's cost to
	// its generation cost; measured on 2-CPU hosts, no width has beaten
	// the serial path, which also reuses pooled search memory the pool
	// path does not.
	SearchWorkers int
}

// SearchLayerOptsCtx finds the lowest-energy mapping for a prepared
// layer and returns it with the number of mappings evaluated. The
// SearchOptions select the budget, seed, and intra-search parallelism.
// The layer's count-analysis Plan is compiled once per search, in place
// in pooled memory (the sliced einsum was validated when the context was
// made), and serves the mapper's candidate validation and the cost
// kernel. On the serial path each candidate stays in index space: it is
// checked once, by the indexed load into the search's Scratch that the
// kernel then analyzes and prices (pricing only, no Result), and the
// kernel stops at level 0 for a candidate whose outermost level alone
// already costs more than the best so far (see costKernel), which cannot
// change the winner; the search's memory is pooled and reused, only a
// new best is written out with its dim names (into a reused buffer), and
// the Result is built once, for the winner, in a recycled Scratch. With
// SearchWorkers > 1 the sampler validates each candidate, writes it with
// its dim names into a recycled buffer, and candidate evaluations fan
// across a worker pool (mapper.Search), each worker loading into its own
// Scratch and bounding by its own best. Pricing sums in a fixed order,
// so the winner and its Result are bit-identical across runs and worker
// counts.
//
// The candidate loop checks for cancellation before each mapping
// evaluation, so a cancelled or expired context makes the search return
// ctx.Err() promptly instead of finishing the whole budget. Deadlines and
// client disconnects in the serving layer reach in-flight work through
// this path.
func (e *Engine) SearchLayerOptsCtx(ctx context.Context, lctx *LayerContext, so SearchOptions) (*Result, int, error) {
	return e.searchLayer(ctx, lctx, so, e.costKernel)
}

// searchLayer is SearchLayerOptsCtx with the cost kernel built by kernel
// from the layer context and the search's Plan.
func (e *Engine) searchLayer(ctx context.Context, lctx *LayerContext, so SearchOptions, kernel func(*LayerContext, *mapping.Plan) mapper.CostFunc) (*Result, int, error) {
	mem := analysisMems.Get().(*analysisMem)
	defer analysisMems.Put(mem)
	plan := &mem.plan
	if err := plan.Compile(e.arch.Levels, lctx.Sliced); err != nil {
		return nil, 0, err
	}
	opts := e.mapperOpts
	opts.MaxMappings, opts.Seed = so.MaxMappings, so.Seed
	best, evaluated, err := mapper.Search(ctx, plan, e.arch.Levels, lctx.Sliced, opts, so.SearchWorkers, kernel(lctx, plan))
	if err != nil {
		return nil, 0, err
	}
	r, err := e.evaluate(lctx, plan, &mem.scratch, best.Mapping)
	if err != nil {
		return nil, 0, err
	}
	return r, evaluated, nil
}

// analysisMem is the memory a layer search or an EvaluateMapping keeps
// in core: its Plan, recompiled in place by each use, and the Scratch
// its Result is analyzed in. A Result holds none of it. analysisMems
// holds about one per evaluation running at once: it is bounded by
// concurrency, not by how many layers were evaluated.
type analysisMem struct {
	plan    mapping.Plan
	scratch mapping.Scratch
}

var analysisMems = sync.Pool{New: func() any { return new(analysisMem) }}

// EvaluateLayerOptsCtx prepares a layer and searches its mapping space
// (see SearchLayerOptsCtx), returning the best result and the number of
// mappings evaluated.
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

// Add appends one layer's best result to the network: its energy, time
// and MACs count repeat times, its evaluated mappings once.
func (n *NetworkResult) Add(r *Result, repeat, evaluated int) {
	n.PerLayer = append(n.PerLayer, r)
	rep := float64(repeat)
	n.Energy += r.Energy * rep
	n.TimeSec += r.TimeSec * rep
	n.MACs += r.MACs * int64(repeat)
	n.MappingsEvaluated += int64(evaluated)
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

// EvaluateNetworkOptsCtx searches the best mapping for every layer of a
// network (layer i with Seed+i) and aggregates energy and time across
// repeats. Cancellation is checked between layers and inside each layer's
// mapping search. SearchWorkers > 1 fans each layer's candidate
// evaluations across a worker pool for single-request latency, with
// results bit-identical to the serial search.
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
		out.Add(r, l.Repeat, evaluated)
	}
	return out, nil
}
