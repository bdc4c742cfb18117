package core

import (
	"sync"

	"repro/internal/dist"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// CostKernel returns the search's per-candidate work for one prepared
// layer, with its Plan compiled and a Scratch of its own: the Load that
// validates a candidate and lays it out, then the cost-only kernel.
func (e *Engine) CostKernel(ctx *LayerContext) (func(*mapping.Mapping) (float64, error), error) {
	plan, err := mapping.NewPlan(e.arch.Levels, ctx.Sliced)
	if err != nil {
		return nil, err
	}
	s := new(mapping.Scratch)
	cost := e.costKernel(ctx, plan)
	return func(m *mapping.Mapping) (float64, error) {
		if err := plan.Load(m, s); err != nil {
			return 0, err
		}
		return cost(s)
	}, nil
}

// ColumnSumDepths returns the distinct reduction depths below each
// level's upper boundary, capped as columnSumPMF caps them, in level
// order: a superset of the depths PrepareLayer sums cell products over.
func (e *Engine) ColumnSumDepths() []int64 {
	var out []int64
	seen := map[int64]bool{}
	for i := range e.bindings {
		d := min(e.arch.reductionDepthBelow(e.bindings[i].levelIdx+1), maxColumnDepth)
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// SumOf is the memo lookup columnSumPMF makes for one cell product and
// reduction depth.
func (m *PrepareMemo) SumOf(cell *dist.PMF, depth int64) (*dist.PMF, error) {
	return m.sum(&operandStage{cell: cell, cellKey: cellKey(cell)}, depth, true)
}

// Kinds counts the memo's entries by kind.
func (m *PrepareMemo) Kinds() (operands, sums int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.items {
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
// called; release then waits for the fills to finish. The memo must hold
// none of those sums yet.
func (e *Engine) HoldSums(l workload.Layer) (release func(), err error) {
	inPMF, err := l.InputPMF(e.arch.InputBits)
	if err != nil {
		return nil, err
	}
	wPMF, err := l.WeightPMF(e.arch.WeightBits)
	if err != nil {
		return nil, err
	}
	ops, err := e.memo.operands(e.arch, inPMF, wPMF, true)
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
			e.memo.get(k, true, func(me *memoEntry) (err error) {
				close(started)
				<-gate
				me.sum, err = columnSum(ops.cell, depth)
				return err
			})
		}()
		<-started
	}
	return func() {
		close(gate)
		wg.Wait()
	}, nil
}
