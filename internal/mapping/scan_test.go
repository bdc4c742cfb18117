package mapping

import (
	"repro/internal/spec"
	"repro/internal/tensor"
)

// This file keeps the per-loop scans the count analysis ran before Load
// folded each level's loops: every count rescans all of the candidate's
// loops, and whether a spatial loop is reduced is a walk over the levels
// between it and the boundary. They are the oracle the per-level folds
// are checked against (FuzzAnalyzeMatchesScan).

// AnalyzeByScan counts the mapping the last successful load laid out in
// s as AnalyzeLoaded does, but with every count taken by a scan over s's
// loops, into fresh Counts. It reads only s's loops, tile extents and
// totals, never its folds or Counts.
func AnalyzeByScan(p *Plan, s *Scratch) *Counts {
	nl := len(p.levels)
	c := &Counts{
		PerLevel:      make([][tensor.NumKinds]TensorCounts, nl),
		present:       p.present,
		MACs:          s.macs,
		ActualMACs:    p.actualMACs,
		Cycles:        s.cycles,
		Instances:     s.inst,
		Utilization:   float64(p.actualMACs) / float64(s.macs),
		MappedOutside: make([]int64, nl),
	}
	for i := range c.MappedOutside {
		mapped := int64(1)
		for _, l := range s.loops {
			if l.spatial && l.level < i {
				mapped *= int64(l.factor)
			}
		}
		c.MappedOutside[i] = mapped
	}

	for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
		if p.spaces&kindBit(t) == 0 {
			continue
		}
		holders := p.holders[t]
		util := p.utilizationOf(s, t)
		if t != tensor.Output {
			for idx, h := range holders {
				tc := &c.PerLevel[h][t]
				tc.Tile = scaleBy(p.tileVolume(s, t, h), util)
				if idx == 0 {
					tc.Writes += tc.Tile
				}
				if idx+1 < len(holders) {
					inner := holders[idx+1]
					pr := scaleBy(p.scanParentTraffic(s, t, inner, inner), util)
					tc.Reads += pr
					c.PerLevel[inner][t].Writes += pr * p.scanMulticastCopies(s, t, inner)
				} else {
					tc.Reads += p.scanConsumption(s, t, h+1)
				}
			}
		} else {
			for idx := len(holders) - 1; idx >= 0; idx-- {
				h := holders[idx]
				tc := &c.PerLevel[h][t]
				tc.Tile = scaleBy(p.tileVolume(s, t, h), util)
				if idx == len(holders)-1 {
					updates := p.scanConsumption(s, t, h+1)
					tc.Writes += updates
					tc.Reads += updates
				}
				if idx > 0 {
					outer := &c.PerLevel[holders[idx-1]][t]
					drains := scaleBy(p.scanParentTraffic(s, t, h, h), util)
					tc.Reads += drains
					outer.Writes += drains
					if idx-1 > 0 {
						outer.Reads += drains
					}
				}
			}
		}
		for i := 0; i < nl; i++ {
			if p.kind[i] == spec.TransitLevel && p.transits[i]&kindBit(t) != 0 {
				c.PerLevel[i][t].Crossings = p.scanCrossings(s, t, i+1)
			}
		}
	}
	return c
}

// scanReducedAt is reducedAt with the coalescing transits between the
// boundary and the spatial level found by walking them.
func (p *Plan) scanReducedAt(t tensor.Kind, j, b int) bool {
	if p.reuse[j]&kindBit(t) != 0 {
		return true
	}
	if t != tensor.Output {
		return false
	}
	for c := b; c < j; c++ {
		if p.kind[c] == spec.TransitLevel && p.coalesce[c]&kindBit(t) != 0 {
			return true
		}
	}
	return false
}

// scanParentTraffic is h's tile volume times refetches(s, t, h, b), by a
// scan of the loops outside h from innermost outward: the temporal
// free-reuse run is broken by the first t-relevant temporal loop.
func (p *Plan) scanParentTraffic(s *Scratch, t tensor.Kind, h, b int) int64 {
	tile := p.tileVolume(s, t, h)
	mult := int64(1)
	runBroken := false
	for i := len(s.loops) - 1; i >= 0; i-- {
		l := &s.loops[i]
		if l.level >= h {
			continue
		}
		rel := p.isRelevant(t, l.dim)
		if l.spatial {
			switch {
			case rel:
				mult *= int64(l.factor) // unicast: distinct data per instance
			case p.scanReducedAt(t, l.level, b):
				// multicast/reduced: one parent access serves the mesh
			default:
				mult *= int64(l.factor)
			}
			continue
		}
		if rel {
			mult *= int64(l.factor)
			runBroken = true
		} else if runBroken {
			mult *= int64(l.factor)
		}
	}
	return tile * mult
}

// scanConsumption is consumption, dividing by one reused spatial factor
// at a time.
func (p *Plan) scanConsumption(s *Scratch, t tensor.Kind, b int) int64 {
	n := s.macs
	for i := range s.loops {
		l := &s.loops[i]
		if !l.spatial || l.level < b {
			continue
		}
		if !p.isRelevant(t, l.dim) && p.scanReducedAt(t, l.level, b) {
			n /= int64(l.factor)
		}
	}
	return n
}

// scanCrossings is crossings over the scans.
func (p *Plan) scanCrossings(s *Scratch, t tensor.Kind, b int) int64 {
	for h := b; h < len(p.levels); h++ {
		if p.keeps[h]&kindBit(t) != 0 {
			return p.scanParentTraffic(s, t, h, b)
		}
	}
	return p.scanConsumption(s, t, b)
}

// scanMulticastCopies is multicastCopies, finding h's parent holder by a
// walk up the levels.
func (p *Plan) scanMulticastCopies(s *Scratch, t tensor.Kind, h int) int64 {
	parent := -1
	for i := h - 1; i >= 0; i-- {
		if p.keeps[i]&kindBit(t) != 0 {
			parent = i
			break
		}
	}
	copies := int64(1)
	for i := range s.loops {
		l := &s.loops[i]
		if !l.spatial || l.level >= h || l.level <= parent {
			continue
		}
		if !p.isRelevant(t, l.dim) && p.scanReducedAt(t, l.level, h) {
			copies *= int64(l.factor)
		}
	}
	return copies
}
