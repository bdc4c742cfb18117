package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// CostKernel returns the search's per-candidate work for one prepared
// layer, with its Plan compiled and a Scratch of its own: the Load that
// validates a candidate and lays it out, then the cost-only kernel under
// the given bound.
func (e *Engine) CostKernel(ctx *LayerContext) (func(m *mapping.Mapping, bound float64) (float64, error), error) {
	plan, err := mapping.NewPlan(e.arch.Levels, ctx.Sliced)
	if err != nil {
		return nil, err
	}
	s := new(mapping.Scratch)
	cost := e.costKernel(ctx, plan)
	return func(m *mapping.Mapping, bound float64) (float64, error) {
		if err := plan.Load(m, s); err != nil {
			return 0, err
		}
		return cost(s, bound)
	}, nil
}

// KernelCall is one call of a search's cost kernel as SearchProbed sees
// it: the bound the kernel was given and what it returned, the level-0
// total it bounds with (level0Total), and the candidate's exact energy
// and its Result's Levels[0].Total, priced in full.
type KernelCall struct {
	Bound, Got, Level0, Exact, Level0Total float64
}

// SearchProbed runs SearchLayerOptsCtx's search with every kernel call
// reported to probe. With unbounded set the kernel is given +Inf instead
// of the search's bound, so it prices every candidate in full.
func (e *Engine) SearchProbed(ctx context.Context, lctx *LayerContext, so SearchOptions, unbounded bool, probe func(KernelCall)) (*Result, int, error) {
	return e.searchLayer(ctx, lctx, so, func(lctx *LayerContext, plan *mapping.Plan) mapper.CostFunc {
		kernel := e.costKernel(lctx, plan)
		return func(s *mapping.Scratch, bound float64) (float64, error) {
			if unbounded {
				bound = math.Inf(1)
			}
			v, err := kernel(s, bound)
			if err != nil {
				return v, err
			}
			call := KernelCall{Bound: bound, Got: v, Level0: e.level0Total(lctx, plan, s)}
			res := Result{Levels: make([]LevelEnergy, 0, len(e.bindings))}
			call.Exact = e.price(lctx, plan.AnalyzeLoaded(s), &res)
			call.Level0Total = res.Levels[0].Total
			probe(call)
			return v, nil
		}
	})
}

// Boundable reports whether the cost kernel may stop at level 0 for ctx.
func (e *Engine) Boundable(ctx *LayerContext) bool { return e.boundable(ctx) }

// ReductionDepths returns the distinct reduction depths below each
// level's upper boundary, capped as columnSumEntry caps them, in level
// order: a superset of the depths PrepareLayer sums cell products over.
func (e *Engine) ReductionDepths() []int64 { return e.depths(func(*binding) bool { return true }) }

// ColumnSumDepths returns the distinct depths of ReductionDepths at the
// levels whose circuit reads the column sum: the depths PrepareLayer
// sums cell products over.
func (e *Engine) ColumnSumDepths() []int64 {
	return e.depths(func(b *binding) bool { return b.sumKey != nil })
}

func (e *Engine) depths(keep func(*binding) bool) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for i := range e.bindings {
		if !keep(&e.bindings[i]) {
			continue
		}
		d := min(e.arch.reductionDepthBelow(e.bindings[i].levelIdx+1), maxColumnDepth)
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// CountMeanEnergies counts the mean energies column-sum entries compute,
// in every memo, until stop is called; priced returns the count so far.
// No other preparation may run while the count is started or stopped.
func CountMeanEnergies() (priced func() uint64, stop func()) {
	var n atomic.Uint64
	pricedHook = func() { n.Add(1) }
	return n.Load, func() { pricedHook = nil }
}

// SumOf returns the sum of the memo entry columnSumEntry looks up for
// one cell product and reduction depth.
func (m *PrepareMemo) SumOf(cell *dist.PMF, depth int64) (*dist.PMF, error) {
	s, err := m.sum(&operandStage{cell: cell, cellKey: cellKey(cell)}, depth, true)
	if err != nil {
		return nil, err
	}
	return s.pmf, nil
}

// Kinds counts the memo's entries by kind.
func (m *PrepareMemo) Kinds() (operands, sums int) {
	for _, k := range m.entries.Keys() {
		if k.kind == operandEntry {
			operands++
		} else {
			sums++
		}
	}
	return operands, sums
}

// HoldSums starts, on e's memo, a fill of the column sum of l's cell
// product at every depth of ColumnSumDepths, each held until release is
// called; release then waits for the fills to finish. It first fills
// l's operand stage under the statistics key PrepareLayer and
// TryPrepareLayer look it up by. The memo must hold none of those sums
// yet.
func (e *Engine) HoldSums(l workload.Layer) (release func(), err error) {
	ops, err := e.memo.layerOperands(e.arch, &l, true)
	if err != nil {
		return nil, err
	}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for _, depth := range e.ColumnSumDepths() {
		started := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := memoKey{kind: sumEntry, digest: ops.cellKey, depth: depth}
			e.memo.get(k, true, func() (any, error) {
				close(started)
				<-gate
				return newColumnSum(ops.cell, depth)
			})
		}()
		<-started
	}
	return func() {
		close(gate)
		wg.Wait()
	}, nil
}
