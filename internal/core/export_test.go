package core

import (
	"repro/internal/mapper"
	"repro/internal/mapping"
)

// CostKernel returns the search's cost-only kernel for one prepared
// layer, with its Plan compiled and a Scratch of its own.
func (e *Engine) CostKernel(ctx *LayerContext) (mapper.CostFunc, error) {
	plan, err := mapping.NewPlan(e.arch.Levels, ctx.Sliced)
	if err != nil {
		return nil, err
	}
	return e.costKernel(ctx, plan), nil
}
