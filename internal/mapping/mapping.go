// Package mapping represents and analyzes mappings: the temporal and
// spatial scheduling of an einsum workload onto a flattened container-
// hierarchy (paper §II-B "Mapping" and §III-B1's per-component reuse
// model).
//
// A Mapping attaches loops to levels: temporal loops to storage levels
// (they iterate the tiles the level holds) and spatial loops to spatial
// levels (they distribute work across the level's mesh). Analysis
// computes, for every level and tensor, the number of values read,
// written, and crossing the level for a whole layer — honoring each
// level's reuse directives:
//
//   - a storage level retains its tile, so loops immediately outside it
//     that are irrelevant to a tensor reuse the tile for free;
//   - spatially reused tensors are multicast (inputs/weights) or reduced
//     (outputs) across a mesh, collapsing parent traffic;
//   - coalescing transit components (adders/accumulators) sum output
//     partial sums flowing upward, reducing traffic above them;
//   - no-coalesce transit components (DACs, ADCs) pay one action per value
//     crossing them.
//
// The analysis is split the way Algorithm 1 splits a layer's work. A Plan
// is compiled once per (level list, sliced einsum): it validates the
// einsum and turns every name-keyed lookup into an index — dimension
// indices, per-tensor relevant-dimension bitmasks and axis tables,
// per-level keep/transit/coalesce/reuse bitmasks, holder lists and the
// tensors' actual volumes. Plan.AnalyzeInto then analyzes one mapping at
// a time into a caller-owned Scratch, whose buffers (and the Counts they
// hold) are reused from call to call, so once a Scratch has grown to the
// layer's size the per-mapping analysis allocates nothing. A Plan is
// read-only and may be shared between goroutines; a Scratch may not.
// Analyze and Validate are the one-shot forms that compile a Plan per
// call.
//
// The closed-form analysis is validated against a brute-force loop-nest
// interpreter (oracle.go) that literally enumerates iterations.
package mapping

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// Loop is one loop of a mapping: a dimension iterated with the given
// factor (trip count).
type Loop struct {
	Dim    string
	Factor int
}

// Mapping assigns loops to the flattened levels of a hierarchy.
// LevelLoops is parallel to the level list (outermost level first); loops
// within a level are ordered outermost first.
type Mapping struct {
	LevelLoops [][]Loop
}

// String renders the mapping compactly, e.g. "L0[K:4 C:2] L3[P:8]".
func (m *Mapping) String() string {
	return string(m.AppendTo(nil))
}

// AppendTo appends the String form of the mapping to dst and returns the
// extended buffer. Samplers use it to build dedup keys in a reused buffer.
func (m *Mapping) AppendTo(dst []byte) []byte {
	start := len(dst)
	for i, loops := range m.LevelLoops {
		if len(loops) == 0 {
			continue
		}
		if len(dst) > start {
			dst = append(dst, ' ')
		}
		dst = append(dst, 'L')
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '[')
		for j, l := range loops {
			if j > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, l.Dim...)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(l.Factor), 10)
		}
		dst = append(dst, ']')
	}
	if len(dst) == start {
		dst = append(dst, "(empty mapping)"...)
	}
	return dst
}

// TensorCounts aggregates per-layer access counts for one tensor at one
// level. All counts are in value units (tensor elements), totaled across
// all spatial instances.
type TensorCounts struct {
	// Tile is the per-instance tile size held at a storage level
	// (utilization-scaled).
	Tile int64
	// Reads counts values read from this level (serving children for
	// inputs/weights; read-modify-write and drain reads for outputs).
	Reads int64
	// Writes counts values written into this level (fills from the parent
	// for inputs/weights; accumulation writes for outputs).
	Writes int64
	// Crossings counts values passing a transit level (one component
	// action each).
	Crossings int64
}

// Counts is the result of analyzing one (workload, mapping) pair.
type Counts struct {
	// PerLevel is parallel to the level list and indexed by tensor.Kind.
	// Only the entries Has reports exist; the others stay zero.
	PerLevel [][tensor.NumKinds]TensorCounts
	// present[i] has bit 1<<kind set for every tensor with an entry at
	// level i: the levels holding it and the transit levels processing
	// it, for the tensors the einsum has.
	present []uint8
	// MACs is the padded compute count (product of all loop factors): the
	// number of MAC positions the hardware activates.
	MACs int64
	// ActualMACs is the workload's true MAC count.
	ActualMACs int64
	// Cycles is the number of sequential steps (product of temporal
	// factors).
	Cycles int64
	// Instances is the total spatial fan-out at the compute level.
	Instances int64
	// MappedOutside[i] is the product of spatial loop factors mapped at
	// levels outside level i: how many of level i's physical instances
	// the mapping actually uses. Hardware often activates all physical
	// instances (idle columns still strobe their ADCs), so the energy
	// model charges the unmapped remainder at zero-value energy.
	MappedOutside []int64
	// Utilization is ActualMACs / MACs.
	Utilization float64
}

// Has reports whether level i has an entry for tensor t.
func (c *Counts) Has(i int, t tensor.Kind) bool {
	return t >= 0 && t < tensor.NumKinds && c.present[i]&kindBit(t) != 0
}

// maxDims bounds the dimensions of an einsum a Plan accepts: relevance
// sets are 64-bit masks over dimension indices.
const maxDims = 64

func kindBit(t tensor.Kind) uint8 { return 1 << uint(t) }

// term is one axis term with its dimension resolved to an index and its
// coefficient made non-negative (tile extents use |coeff|).
type term struct {
	dim   int
	coeff int
}

// Plan is the per-layer half of the count analysis: everything about a
// (level list, einsum) pair that does not depend on the mapping, with
// names resolved to indices and tensor sets to bitmasks. NewPlan builds
// it; it is read-only afterwards.
type Plan struct {
	levels []spec.Level
	dims   []string // dimension names; a dimension's index is its position
	bounds []int

	// spaces has bit 1<<kind set for each tensor the einsum has. When
	// several data spaces share a kind, the last one describes it.
	spaces uint8
	// relevant[kind] has bit d set when dimension d appears in the
	// tensor's projection.
	relevant [tensor.NumKinds]uint64
	// axes[kind] is the tensor's projection: the terms of each axis in
	// turn, every axis closed by a term with dim -1.
	axes [tensor.NumKinds][]term
	// actual[kind] is the tensor's volume over the unpadded bounds.
	actual     [tensor.NumKinds]int64
	actualMACs int64

	// Per level, parallel to levels: its kind and mesh, and bitmasks
	// over tensor kinds of the level's directives.
	kind                             []spec.LevelKind
	mesh                             []int
	keeps, transits, coalesce, reuse []uint8
	// holders[kind] lists the levels keeping the tensor, outermost first.
	holders [tensor.NumKinds][]int
	// present is Counts.present, the same for every mapping.
	present []uint8
}

// NewPlan validates the einsum and compiles the mapping-independent
// tables of the count analysis for it on the given levels.
func NewPlan(levels []spec.Level, e *tensor.Einsum) (*Plan, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if len(e.Dims) > maxDims {
		return nil, fmt.Errorf("mapping: einsum %q has %d dimensions, at most %d are supported", e.Name, len(e.Dims), maxDims)
	}
	nl := len(levels)
	p := &Plan{
		levels:     levels,
		dims:       make([]string, len(e.Dims)),
		bounds:     make([]int, len(e.Dims)),
		actualMACs: e.MACs(),
		kind:       make([]spec.LevelKind, nl),
		mesh:       make([]int, nl),
	}
	flags := make([]uint8, 5*nl) // one backing array for the five per-level masks
	p.keeps, p.transits, p.coalesce = flags[:nl:nl], flags[nl:2*nl:2*nl], flags[2*nl:3*nl:3*nl]
	p.reuse, p.present = flags[3*nl:4*nl:4*nl], flags[4*nl:]
	for i, d := range e.Dims {
		p.dims[i], p.bounds[i] = d.Name, d.Bound
	}
	// All tensors' axis terms share one backing array.
	n := 0
	for _, s := range e.Spaces {
		for _, ax := range s.Axes {
			n += len(ax) + 1
		}
	}
	terms := make([]term, 0, n)
	for _, s := range e.Spaces {
		if s.Kind < 0 || s.Kind >= tensor.NumKinds {
			continue
		}
		p.spaces |= kindBit(s.Kind)
		var rel uint64
		start := len(terms)
		for _, ax := range s.Axes {
			for _, c := range ax {
				d := p.dimIndex(c.Dim)
				co := c.Coeff
				if co < 0 {
					co = -co
				}
				terms = append(terms, term{dim: d, coeff: co})
				rel |= 1 << uint(d)
			}
			terms = append(terms, term{dim: -1})
		}
		p.relevant[s.Kind], p.axes[s.Kind] = rel, terms[start:len(terms):len(terms)]
		p.actual[s.Kind] = p.volume(s.Kind, p.bounds)
	}
	nh := 0
	for i := range levels {
		lv := &levels[i]
		p.kind[i], p.mesh[i] = lv.Kind, lv.Mesh
		p.keeps[i] = kindMask(lv.Keeps)
		p.transits[i] = kindMask(lv.Transits)
		p.coalesce[i] = kindMask(lv.CoalesceT)
		p.reuse[i] = kindMask(lv.SpatialReuse)
		p.present[i] = p.keeps[i]
		if lv.Kind == spec.TransitLevel {
			p.present[i] |= p.transits[i]
		}
		p.present[i] &= p.spaces
		nh += bits.OnesCount8(p.keeps[i])
	}
	// All tensors' holder lists share one backing array.
	holders := make([]int, 0, nh)
	for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
		start := len(holders)
		for i := range levels {
			if p.keeps[i]&kindBit(t) != 0 {
				holders = append(holders, i)
			}
		}
		p.holders[t] = holders[start:len(holders):len(holders)]
	}
	return p, nil
}

// kindMask turns a per-tensor flag map into a bitmask.
func kindMask(m map[tensor.Kind]bool) uint8 {
	var mask uint8
	for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
		if m[t] {
			mask |= kindBit(t)
		}
	}
	return mask
}

// dimIndex returns the index of the named dimension, or -1. Einsums have
// a handful of mostly one-letter dimensions, so a scan that rejects on
// the first byte before comparing whole names beats a map.
func (p *Plan) dimIndex(name string) int {
	if name == "" {
		return -1 // einsum validation rejects unnamed dimensions
	}
	for i, d := range p.dims {
		if d[0] == name[0] && d == name {
			return i
		}
	}
	return -1
}

// volume returns the padded volume of tensor t over a tile with the given
// per-dimension extents (tensor.DataSpace.TileVolume over indices).
func (p *Plan) volume(t tensor.Kind, tile []int) int64 {
	vol, extent := int64(1), 1
	for _, c := range p.axes[t] {
		if c.dim < 0 { // end of axis
			vol *= int64(extent)
			extent = 1
			continue
		}
		extent += c.coeff * (tile[c.dim] - 1)
	}
	return vol
}

// loopRef is one loop in global nest order with its level context.
type loopRef struct {
	dim     int
	factor  int
	level   int  // index into the flattened level list
	spatial bool // attached to a spatial level
}

// Scratch holds the per-mapping state of an analysis and the Counts it
// produces. Its buffers grow to the largest layer seen and are reused, so
// analyzing into a warm Scratch allocates nothing. The zero value is
// ready to use; a Scratch must not be used by two goroutines at once.
type Scratch struct {
	loops   []loopRef // in global order, outermost first
	padded  []int     // per-dimension product of all factors
	tiles   []int     // row h: per-dimension tile extents at level h
	spatial []int64   // per-level product of spatial factors
	macs    int64     // padded MAC count: product of all factors
	cycles  int64
	inst    int64
	counts  Counts
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// checkShape is the part of validation that needs neither the einsum nor
// a Plan.
func checkShape(levels []spec.Level, m *Mapping) error {
	if m == nil {
		return errors.New("mapping: nil mapping")
	}
	if len(m.LevelLoops) != len(levels) {
		return fmt.Errorf("mapping: %d loop lists for %d levels", len(m.LevelLoops), len(levels))
	}
	return nil
}

// check validates m against the plan, and with s non-nil lays its loops
// out in s (s.padded must be len(p.dims) long): loops may only appear on
// levels that support them, spatial factors must fit the mesh, and every
// dimension's factor product must cover its bound. product receives each
// dimension's factor product.
func (p *Plan) check(m *Mapping, product []int, s *Scratch) error {
	if err := checkShape(p.levels, m); err != nil {
		return err
	}
	for d := range product {
		product[d] = 1
	}
	for i, loops := range m.LevelLoops {
		sp := p.kind[i] == spec.SpatialLevel
		spatialProduct := 1
		for _, l := range loops {
			d := p.dimIndex(l.Dim)
			if d < 0 {
				return fmt.Errorf("mapping: level %d (%s) loops over unknown dim %q", i, p.levels[i].Name, l.Dim)
			}
			if l.Factor <= 0 {
				return fmt.Errorf("mapping: level %d (%s) dim %s has factor %d", i, p.levels[i].Name, l.Dim, l.Factor)
			}
			product[d] *= l.Factor
			switch p.kind[i] {
			case spec.SpatialLevel:
				spatialProduct *= l.Factor
			case spec.StorageLevel:
				// temporal loop, fine
			default:
				return fmt.Errorf("mapping: level %d (%s) is %s and cannot carry loops", i, p.levels[i].Name, p.kind[i])
			}
			if s != nil {
				s.loops = append(s.loops, loopRef{dim: d, factor: l.Factor, level: i, spatial: sp})
			}
		}
		if sp && spatialProduct > p.mesh[i] {
			return fmt.Errorf("mapping: level %d (%s) spatial factors %d exceed mesh %d", i, p.levels[i].Name, spatialProduct, p.mesh[i])
		}
	}
	for d, b := range p.bounds {
		if product[d] < b {
			return fmt.Errorf("mapping: dim %s factors cover %d < bound %d", p.dims[d], product[d], b)
		}
	}
	return nil
}

// Validate checks a mapping against the plan's levels and einsum without
// analyzing it. It allocates nothing unless it returns an error.
func (p *Plan) Validate(m *Mapping) error {
	var buf [maxDims]int
	return p.check(m, buf[:len(p.dims)], nil)
}

// Validate checks a mapping against a hierarchy and workload: loops may
// only appear on levels that support them, spatial factors must fit the
// mesh, and every dimension's factor product must cover its bound.
func Validate(levels []spec.Level, e *tensor.Einsum, m *Mapping) error {
	if err := checkShape(levels, m); err != nil {
		return err
	}
	p, err := NewPlan(levels, e)
	if err != nil {
		return err
	}
	return p.Validate(m)
}

// load validates m and lays it out in s: its loops in global order, the
// per-level spatial products, the MAC/cycle/instance totals, and the tile
// extents at every level.
func (p *Plan) load(m *Mapping, s *Scratch) error {
	nd, nl := len(p.dims), len(p.levels)
	s.padded = resize(s.padded, nd)
	n := 0
	for _, loops := range m.LevelLoops {
		n += len(loops)
	}
	if cap(s.loops) < n {
		s.loops = make([]loopRef, 0, n)
	}
	s.loops = s.loops[:0]
	if err := p.check(m, s.padded, s); err != nil {
		return err
	}
	s.spatial = resize(s.spatial, nl)
	s.tiles = resize(s.tiles, (nl+1)*nd)
	for d := nl * nd; d < len(s.tiles); d++ {
		s.tiles[d] = 1
	}
	s.macs, s.cycles, s.inst = 1, 1, 1
	// Walk the loops innermost first, so that row h of tiles is row h+1
	// times the factors at level h.
	next := len(s.loops) - 1
	for h := nl - 1; h >= 0; h-- {
		row := s.tiles[h*nd : (h+1)*nd]
		copy(row, s.tiles[(h+1)*nd:(h+2)*nd])
		s.spatial[h] = 1
		for ; next >= 0 && s.loops[next].level == h; next-- {
			l := &s.loops[next]
			row[l.dim] *= l.factor
			s.macs *= int64(l.factor)
			if l.spatial {
				s.inst *= int64(l.factor)
				s.spatial[h] *= int64(l.factor)
			} else {
				s.cycles *= int64(l.factor)
			}
		}
	}
	return nil
}

// tileVolume returns the padded tile volume of t at level h: its extent
// along each dimension is the product of factors of loops attached to
// levels at or inside h.
func (p *Plan) tileVolume(s *Scratch, t tensor.Kind, h int) int64 {
	nd := len(p.dims)
	return p.volume(t, s.tiles[h*nd:(h+1)*nd])
}

// reducedAt reports whether the spatial loop at level j is collapsed for
// tensor t when observed from the boundary just above level b (b <= j):
// either the spatial level declares reuse for t, or (outputs only) a
// coalescing transit sits between the boundary and the spatial level.
func (p *Plan) reducedAt(t tensor.Kind, j, b int) bool {
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

// isRelevant reports whether dimension d appears in t's projection.
func (p *Plan) isRelevant(t tensor.Kind, d int) bool {
	return t >= 0 && t < tensor.NumKinds && p.relevant[t]&(1<<uint(d)) != 0
}

// parentTraffic returns the per-layer value count of tensor t crossing the
// boundary just above level b, where h (h >= b) is the first holder of t
// at or inside b: tile volume times the refetch multiplier over all loops
// outside h. The temporal free-reuse run is broken by the first t-relevant
// temporal loop encountered moving outward from h.
func (p *Plan) parentTraffic(s *Scratch, t tensor.Kind, h, b int) int64 {
	tile := p.tileVolume(s, t, h)
	mult := int64(1)
	runBroken := false
	// Scan loops outside h from innermost outward.
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
			case p.reducedAt(t, l.level, b):
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

// consumption returns the per-layer value count of tensor t crossing the
// boundary just above level b when no holder of t exists at or inside b:
// every MAC consumes one value, collapsed by reused spatial loops inside
// the boundary.
func (p *Plan) consumption(s *Scratch, t tensor.Kind, b int) int64 {
	n := s.macs
	for i := range s.loops {
		l := &s.loops[i]
		if !l.spatial || l.level < b {
			continue
		}
		if !p.isRelevant(t, l.dim) && p.reducedAt(t, l.level, b) {
			n /= int64(l.factor)
		}
	}
	return n
}

// crossings returns the per-layer value count of tensor t crossing the
// boundary just above level b.
func (p *Plan) crossings(s *Scratch, t tensor.Kind, b int) int64 {
	for h := b; h < len(p.levels); h++ {
		if p.keeps[h]&kindBit(t) != 0 {
			return p.parentTraffic(s, t, h, b)
		}
	}
	return p.consumption(s, t, b)
}

// multicastCopies returns the number of instance copies receiving each
// multicast parent access of tensor t into holder h: the product of reused
// irrelevant spatial factors between h and its parent holder (or the top).
func (p *Plan) multicastCopies(s *Scratch, t tensor.Kind, h int) int64 {
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
		if !p.isRelevant(t, l.dim) && p.reducedAt(t, l.level, h) {
			copies *= int64(l.factor)
		}
	}
	return copies
}

// utilizationOf returns actual/padded volume for tensor t, used to scale
// storage traffic to the data that actually exists.
func (p *Plan) utilizationOf(s *Scratch, t tensor.Kind) float64 {
	padded := p.volume(t, s.padded)
	if padded == 0 {
		return 1
	}
	return float64(p.actual[t]) / float64(padded)
}

// scaleBy scales a padded count to actual data, keeping nonzero counts
// nonzero.
func scaleBy(v int64, util float64) int64 {
	s := int64(float64(v)*util + 0.5)
	if s < 1 && v > 0 {
		s = 1
	}
	return s
}

// Analyze computes per-level, per-tensor access counts for the mapping,
// compiling a Plan for this one call. Repeated analyses of one layer
// should compile the Plan once and use AnalyzeInto.
func Analyze(levels []spec.Level, e *tensor.Einsum, m *Mapping) (*Counts, error) {
	if err := checkShape(levels, m); err != nil {
		return nil, err
	}
	p, err := NewPlan(levels, e)
	if err != nil {
		return nil, err
	}
	return p.AnalyzeInto(m, new(Scratch))
}

// AnalyzeInto validates the mapping like Validate and computes its
// per-level, per-tensor access counts into s. The returned Counts belong
// to s and are overwritten by the next call with the same Scratch.
func (p *Plan) AnalyzeInto(m *Mapping, s *Scratch) (*Counts, error) {
	if err := p.load(m, s); err != nil {
		return nil, err
	}
	nl := len(p.levels)
	c := &s.counts
	c.PerLevel = resize(c.PerLevel, nl)
	c.present = p.present
	c.MACs = s.macs
	c.ActualMACs = p.actualMACs
	c.Cycles = s.cycles
	c.Instances = s.inst
	c.Utilization = float64(p.actualMACs) / float64(s.macs)
	c.MappedOutside = resize(c.MappedOutside, nl)
	mapped := int64(1)
	for i := range c.MappedOutside {
		c.MappedOutside[i] = mapped
		mapped *= s.spatial[i]
	}

	for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
		if p.spaces&kindBit(t) == 0 {
			continue
		}
		holders := p.holders[t]
		util := p.utilizationOf(s, t)
		if t != tensor.Output {
			// Inputs and weights flow downward: parent reads fill children.
			for idx, h := range holders {
				tc := &c.PerLevel[h][t]
				tc.Tile = scaleBy(p.tileVolume(s, t, h), util)
				if idx == 0 {
					// Top holder: data arrives once.
					tc.Writes += tc.Tile
				}
				// Serve the next-inner holder, or compute directly.
				if idx+1 < len(holders) {
					inner := holders[idx+1]
					pr := scaleBy(p.parentTraffic(s, t, inner, inner), util)
					tc.Reads += pr
					c.PerLevel[inner][t].Writes += pr * p.multicastCopies(s, t, inner)
				} else {
					tc.Reads += p.consumption(s, t, h+1)
				}
			}
		} else {
			// Outputs flow upward: compute updates the innermost holder,
			// which drains toward the top.
			for idx := len(holders) - 1; idx >= 0; idx-- {
				h := holders[idx]
				tc := &c.PerLevel[h][t]
				tc.Tile = scaleBy(p.tileVolume(s, t, h), util)
				if idx == len(holders)-1 {
					// Innermost holder: read-modify-write per update.
					updates := p.consumption(s, t, h+1)
					tc.Writes += updates
					tc.Reads += updates
				}
				if idx > 0 {
					// Drain to the next-outer holder.
					outer := &c.PerLevel[holders[idx-1]][t]
					drains := scaleBy(p.parentTraffic(s, t, h, h), util)
					tc.Reads += drains
					outer.Writes += drains
					if idx-1 > 0 {
						// Intermediate holders accumulate (RMW).
						outer.Reads += drains
					}
				}
			}
		}
		// Transit crossings for every transit level processing t.
		for i := 0; i < nl; i++ {
			if p.kind[i] == spec.TransitLevel && p.transits[i]&kindBit(t) != 0 {
				c.PerLevel[i][t].Crossings = p.crossings(s, t, i+1)
			}
		}
	}
	return c, nil
}
