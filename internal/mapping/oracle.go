package mapping

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// OracleParentTraffic computes, by literally enumerating the temporal loop
// nest, the padded value count of tensor t crossing the boundary just
// above level b, where h is the first holder of t at or inside b. It is
// the ground-truth oracle for the closed-form parent traffic (a holder's
// tile volume times Plan.refetches): a refill happens whenever the tuple
// of t-relevant temporal loop indices outside h changes between
// consecutive steps, which reproduces the "innermost irrelevant run
// reuses for free, everything further out refetches" behavior from first
// principles.
//
// Exponential in the nest size; intended for tests on small mappings.
func OracleParentTraffic(levels []spec.Level, e *tensor.Einsum, m *Mapping, t tensor.Kind, h, b int) (int64, error) {
	p, s, err := loadPlan(levels, e, m)
	if err != nil {
		return 0, err
	}
	if h < 0 || h >= len(levels) || !levels[h].Keeps[t] {
		return 0, fmt.Errorf("mapping: oracle: level %d does not hold %s", h, t)
	}
	if b < 0 || b > h {
		return 0, fmt.Errorf("mapping: oracle: boundary %d not above holder %d", b, h)
	}

	// Temporal loops in global order (outermost first).
	var tloops []loopRef
	total := int64(1)
	for _, l := range s.loops {
		if !l.spatial {
			tloops = append(tloops, l)
			total *= int64(l.factor)
		}
	}
	if total > 1<<22 {
		return 0, fmt.Errorf("mapping: oracle: nest too large (%d steps)", total)
	}

	// relevantOutside[i] marks temporal loops whose index participates in
	// the tile signature: relevant dims at levels outside h.
	relevantOutside := make([]bool, len(tloops))
	for i, l := range tloops {
		relevantOutside[i] = l.level < h && p.isRelevant(t, l.dim)
	}

	idx := make([]int, len(tloops))
	var prev []int
	refills := int64(0)
	for step := int64(0); step < total; step++ {
		sig := make([]int, 0, len(tloops))
		for i := range tloops {
			if relevantOutside[i] {
				sig = append(sig, idx[i])
			}
		}
		if prev == nil || !equalInts(sig, prev) {
			refills++
			prev = sig
		}
		// Advance the odometer: innermost loop varies fastest.
		for i := len(tloops) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < tloops[i].factor {
				break
			}
			idx[i] = 0
		}
	}

	// Spatial multiplier: distinct parent accesses across the mesh.
	spatialKeys := int64(1)
	for _, l := range s.loops {
		if !l.spatial || l.level >= h {
			continue
		}
		if p.isRelevant(t, l.dim) || !p.reducedAt(t, l.level, b) {
			spatialKeys *= int64(l.factor)
		}
	}
	return refills * spatialKeys * p.tileVolume(s, t, h), nil
}

// loadPlan compiles a Plan and lays m out in a fresh Scratch.
func loadPlan(levels []spec.Level, e *tensor.Einsum, m *Mapping) (*Plan, *Scratch, error) {
	if err := checkShape(levels, m); err != nil {
		return nil, nil, err
	}
	p, err := NewPlan(levels, e)
	if err != nil {
		return nil, nil, err
	}
	s := new(Scratch)
	if err := p.Load(m, s); err != nil {
		return nil, nil, err
	}
	return p, s, nil
}

// ParentTrafficClosedForm exposes the analytical parent traffic (tile
// volume times refetches) for tests.
func ParentTrafficClosedForm(levels []spec.Level, e *tensor.Einsum, m *Mapping, t tensor.Kind, h, b int) (int64, error) {
	p, s, err := loadPlan(levels, e, m)
	if err != nil {
		return 0, err
	}
	if h < 0 || h >= len(levels) || !levels[h].Keeps[t] {
		return 0, fmt.Errorf("mapping: level %d does not hold %s", h, t)
	}
	return p.tileVolume(s, t, h) * p.refetches(s, t, h, b), nil
}

// ConsumptionClosedForm exposes the analytical consumption for tests.
func ConsumptionClosedForm(levels []spec.Level, e *tensor.Einsum, m *Mapping, t tensor.Kind, b int) (int64, error) {
	p, s, err := loadPlan(levels, e, m)
	if err != nil {
		return 0, err
	}
	return p.consumption(s, t, b), nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
