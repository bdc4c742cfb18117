package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/serve/api"
)

// checkResult verifies the invariants every evaluated (layer, mapping)
// result must satisfy.
func checkResult(r *core.Result) error {
	if r == nil {
		return fmt.Errorf("nil result")
	}
	if math.IsNaN(r.Energy) || math.IsInf(r.Energy, 0) || r.Energy < 0 {
		return fmt.Errorf("%s: energy %v is not finite and >= 0", r.Layer, r.Energy)
	}
	total := 0.0
	for _, l := range r.Levels {
		total += l.Total
	}
	if total != r.Energy {
		return fmt.Errorf("%s: energy %v != sum of level totals %v", r.Layer, r.Energy, total)
	}
	if r.PaddedMACs < r.MACs {
		return fmt.Errorf("%s: padded MACs %d < MACs %d", r.Layer, r.PaddedMACs, r.MACs)
	}
	if !(r.Utilization > 0 && r.Utilization <= 1) {
		return fmt.Errorf("%s: utilization %v outside (0, 1]", r.Layer, r.Utilization)
	}
	return nil
}

// checkNetwork applies checkResult to every layer of a serve result
// that carries its per-layer breakdown.
func checkNetwork(r *api.EvalResult) error {
	if r.NetworkResult == nil {
		return fmt.Errorf("%s: no per-layer results", r.Tag)
	}
	for _, l := range r.NetworkResult.PerLayer {
		if err := checkResult(l); err != nil {
			return fmt.Errorf("%s: %w", r.Tag, err)
		}
	}
	return nil
}

// checkWire verifies the invariants of one evaluation as a client sees it
// over HTTP: positive finite energy, positive MACs, and a mapping count
// within the request's budget.
func checkWire(r *api.EvalResult, maxMappings, layers int) error {
	if r.Err != "" {
		return fmt.Errorf("%s: %s", r.Tag, r.Err)
	}
	if math.IsNaN(r.EnergyJ) || math.IsInf(r.EnergyJ, 0) || r.EnergyJ <= 0 {
		return fmt.Errorf("%s: energy_j %v is not finite and > 0", r.Tag, r.EnergyJ)
	}
	if r.MACs <= 0 {
		return fmt.Errorf("%s: macs %d <= 0", r.Tag, r.MACs)
	}
	if r.MappingsEvaluated <= 0 || r.MappingsEvaluated > int64(maxMappings*layers) {
		return fmt.Errorf("%s: mappings_evaluated %d outside (0, %d]", r.Tag, r.MappingsEvaluated, maxMappings*layers)
	}
	return nil
}
