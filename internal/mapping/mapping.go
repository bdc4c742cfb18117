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
// per-level keep/transit/coalesce/reuse bitmasks, holder lists, the
// tensors' actual volumes, and for every boundary the first
// output-coalescing transit at or below it. Per mapping, the Plan works
// in a caller-owned Scratch whose buffers (and the Counts they hold) are
// reused from call to call, so once a Scratch has grown to the layer's
// size the per-mapping analysis allocates nothing. It has two halves:
//
//   - Load lays a mapping out in the Scratch: a named Mapping has its
//     dimension names resolved to indices, while LoadIndexed takes loops
//     already in index space (the mapper's draws), and both end in the
//     one check of the loops and the one layout walk (ValidateIndexed
//     runs the check alone). The walk goes innermost level first,
//     building the tile extents at every level that keeps a tensor and
//     folding each level's loops per tensor: the products of its
//     relevant and irrelevant spatial factors, of all its temporal
//     factors, and of its temporal factors out to the innermost relevant
//     one.
//   - AnalyzeLoaded counts that layout. Each parent-traffic, consumption
//     and multicast count is a product over levels of those folds, so it
//     costs O(levels) rather than a rescan of every loop, and each
//     holder's tile volume is computed once per tensor. Integer products
//     commute (and a level's spatial factors fit its mesh, so dividing
//     by their product is dividing by each), so the counts are those of a
//     loop-by-loop scan, bit for bit.
//
// AnalyzeInto is Load then AnalyzeLoaded, and WriteLoaded turns a loaded
// layout back into a named Mapping. A Plan is read-only and may be shared
// between goroutines; a Scratch may not. Analyze and Validate are the
// one-shot forms that compile a Plan per call.
//
// The closed-form analysis is validated against a brute-force loop-nest
// interpreter (oracle.go) that literally enumerates iterations, and its
// per-level folds against the per-loop scans they replaced (a test-only
// oracle).
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
	var dst []byte
	for i, loops := range m.LevelLoops {
		if len(loops) == 0 {
			continue
		}
		if len(dst) > 0 {
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
	if len(dst) == 0 {
		return "(empty mapping)"
	}
	return string(dst)
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
	// byFirst[c] is 1 + the index of the first dimension whose name
	// starts with byte c, or 0 if none does, with sharedFirst set when a
	// later dimension's name starts with c too.
	byFirst [256]uint8

	// spaces has bit 1<<kind set for each tensor the einsum has. When
	// several data spaces share a kind, the last one describes it.
	spaces uint8
	// relevant[kind] has bit d set when dimension d appears in the
	// tensor's projection; dimRel[d] is its transpose, with bit 1<<kind
	// set for every tensor whose projection dimension d appears in.
	relevant [tensor.NumKinds]uint64
	dimRel   [maxDims]uint8
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
	// coalesceFrom[b] is the first level at or below boundary b (b <=
	// len(levels)) that is a transit level coalescing outputs, or
	// len(levels) when there is none.
	coalesceFrom []int
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
	}
	ints := make([]int, 2*nl+1) // one backing array for mesh and coalesceFrom
	p.mesh, p.coalesceFrom = ints[:nl:nl], ints[nl:]
	flags := make([]uint8, 5*nl) // one backing array for the five per-level masks
	p.keeps, p.transits, p.coalesce = flags[:nl:nl], flags[nl:2*nl:2*nl], flags[2*nl:3*nl:3*nl]
	p.reuse, p.present = flags[3*nl:4*nl:4*nl], flags[4*nl:]
	for i, d := range e.Dims {
		p.dims[i], p.bounds[i] = d.Name, d.Bound
		if c := &p.byFirst[d.Name[0]]; *c == 0 {
			*c = uint8(i + 1)
		} else {
			*c |= sharedFirst
		}
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
	for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
		for d := range p.dims {
			if p.relevant[t]&(1<<uint(d)) != 0 {
				p.dimRel[d] |= kindBit(t)
			}
		}
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
	p.coalesceFrom[nl] = nl
	for i := nl - 1; i >= 0; i-- {
		p.coalesceFrom[i] = p.coalesceFrom[i+1]
		if p.kind[i] == spec.TransitLevel && p.coalesce[i]&kindBit(tensor.Output) != 0 {
			p.coalesceFrom[i] = i
		}
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

// sharedFirst marks a Plan.byFirst entry whose first byte starts the
// names of several dimensions (maxDims keeps indices below it).
const sharedFirst = 0x80

// dimIndex returns the index of the named dimension, or -1. Einsums have
// a handful of mostly one-letter dimensions, so the first byte of a name
// usually settles it, and a map would be slower.
func (p *Plan) dimIndex(name string) int {
	if name == "" {
		return -1 // einsum validation rejects unnamed dimensions
	}
	c := p.byFirst[name[0]]
	if c == 0 {
		return -1
	}
	i := int(c&^sharedFirst) - 1
	if c&sharedFirst == 0 {
		if p.dims[i] == name {
			return i
		}
		return -1
	}
	for ; i < len(p.dims); i++ {
		if d := p.dims[i]; d[0] == name[0] && d == name {
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

// IndexLoop is a Loop with its dimension given as an index into the
// einsum's dimensions, the form LoadIndexed takes.
type IndexLoop struct {
	Dim    int
	Factor int
}

// loopRef is one loop in global nest order with its level context.
type loopRef struct {
	dim     int
	factor  int
	level   int  // index into the flattened level list
	spatial bool // attached to a spatial level
}

// levelFold is one level's loops folded per tensor by the layout walk.
// Every count AnalyzeLoaded takes of a level's loops is one of these
// products; a storage level has only temporal factors and a spatial
// level only spatial ones, so the other products stay 1.
type levelFold struct {
	spatial  int64 // product of the level's spatial factors
	temporal int64 // product of the level's temporal factors
	// relTemporal has bit 1<<kind set when one of the level's temporal
	// loops is relevant to the tensor.
	relTemporal uint8
	// toRelevant[kind] is the product of the level's temporal factors
	// from its outermost loop through its innermost loop relevant to the
	// tensor (1 when none is).
	toRelevant [tensor.NumKinds]int64
	// rel[kind] and irr[kind] are the products of the level's spatial
	// factors over dimensions relevant and irrelevant to the tensor.
	rel, irr [tensor.NumKinds]int64
	// tile is the padded tile volume at the level of the tensor
	// AnalyzeLoaded is counting, set at every holder of that tensor.
	tile int64
}

// unitFold is a level with no loops.
var unitFold = func() levelFold {
	f := levelFold{spatial: 1, temporal: 1}
	for t := range f.rel {
		f.toRelevant[t], f.rel[t], f.irr[t] = 1, 1, 1
	}
	return f
}()

// Scratch holds the per-mapping state of an analysis and the Counts it
// produces. Its buffers grow to the largest layer seen and are reused, so
// analyzing into a warm Scratch allocates nothing. The zero value is
// ready to use; a Scratch must not be used by two goroutines at once.
type Scratch struct {
	loops  []loopRef   // in global order, outermost first
	padded []int       // per-dimension product of all factors
	tiles  []int       // row h: per-dimension tile extents at level h, if it keeps a tensor
	folds  []levelFold // per level
	macs   int64       // padded MAC count: product of all factors
	cycles int64
	inst   int64
	counts Counts
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

// startLoops empties s.loops with room for n loops.
func (s *Scratch) startLoops(n int) {
	if cap(s.loops) < n {
		s.loops = make([]loopRef, 0, n)
	}
	s.loops = s.loops[:0]
}

// check validates the loops in s.loops, which hold a mapping's loops in
// global order with every level's loops together: every loop's dim must
// be one of the einsum's and its factor positive, loops may only appear
// on spatial and storage levels, a spatial level's factors must fit its
// mesh, and every dimension's factor product, left in s.padded, must
// cover its bound. Load and LoadIndexed both end in it.
func (p *Plan) check(s *Scratch) error {
	nd := len(p.dims)
	s.padded = resize(s.padded, nd)
	for d := range s.padded {
		s.padded[d] = 1
	}
	next := 0
	for i := range p.levels {
		// over records that the spatial product passed the mesh: checked
		// factor by factor, so that no product wraps and folds to a
		// small one.
		spatialProduct, over := 1, false
		for ; next < len(s.loops) && s.loops[next].level == i; next++ {
			l := &s.loops[next]
			if l.dim < 0 || l.dim >= nd {
				return fmt.Errorf("mapping: level %d (%s) loops over dim index %d of %d", i, p.levels[i].Name, l.dim, nd)
			}
			if l.factor <= 0 {
				return fmt.Errorf("mapping: level %d (%s) dim %s has factor %d", i, p.levels[i].Name, p.dims[l.dim], l.factor)
			}
			s.padded[l.dim] *= l.factor
			switch p.kind[i] {
			case spec.SpatialLevel:
				over = over || l.factor > p.mesh[i]/spatialProduct
				spatialProduct *= l.factor
			case spec.StorageLevel:
				// temporal loop, fine
			default:
				return fmt.Errorf("mapping: level %d (%s) is %s and cannot carry loops", i, p.levels[i].Name, p.kind[i])
			}
		}
		if p.kind[i] == spec.SpatialLevel && (over || spatialProduct > p.mesh[i]) {
			return fmt.Errorf("mapping: level %d (%s) spatial factors %d exceed mesh %d", i, p.levels[i].Name, spatialProduct, p.mesh[i])
		}
	}
	for d, b := range p.bounds {
		if s.padded[d] < b {
			return fmt.Errorf("mapping: dim %s factors cover %d < bound %d", p.dims[d], s.padded[d], b)
		}
	}
	return nil
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
	return p.Load(m, new(Scratch))
}

// Load validates m like Validate and lays it out in s: its loops in
// global order, the MAC/cycle/instance totals, the tile extents at every
// level and every level's folds. It resolves m's dimension names and
// then checks and lays the loops out as LoadIndexed does. AnalyzeLoaded
// then analyzes that layout; m itself is not read again, so the caller
// may reuse it once Load returns.
func (p *Plan) Load(m *Mapping, s *Scratch) error {
	if err := checkShape(p.levels, m); err != nil {
		return err
	}
	n := 0
	for _, loops := range m.LevelLoops {
		n += len(loops)
	}
	s.startLoops(n)
	for i, loops := range m.LevelLoops {
		sp := p.kind[i] == spec.SpatialLevel
		for _, l := range loops {
			d := p.dimIndex(l.Dim)
			if d < 0 {
				return fmt.Errorf("mapping: level %d (%s) loops over unknown dim %q", i, p.levels[i].Name, l.Dim)
			}
			s.loops = append(s.loops, loopRef{dim: d, factor: l.Factor, level: i, spatial: sp})
		}
	}
	return p.layout(s)
}

// LoadIndexed is Load for a mapping whose loops are given per level (in
// level order, each level's loops outermost first) with their dimensions
// as indices into the einsum's: the form a mapper draws in. It runs the
// same check and the same layout, so it accepts exactly the mappings Load
// accepts, and lays them out identically. loops is not read again once
// it returns.
func (p *Plan) LoadIndexed(loops [][]IndexLoop, s *Scratch) error {
	if err := p.gather(loops, s); err != nil {
		return err
	}
	return p.layout(s)
}

// ValidateIndexed runs LoadIndexed's check without the layout, for a
// caller that only needs to know whether the loops form a valid mapping.
// It uses s's buffers, after which s holds the loops (WriteLoaded writes
// them) but no layout to analyze.
func (p *Plan) ValidateIndexed(loops [][]IndexLoop, s *Scratch) error {
	if err := p.gather(loops, s); err != nil {
		return err
	}
	return p.check(s)
}

// gather puts indexed loops into s.loops in global order.
func (p *Plan) gather(loops [][]IndexLoop, s *Scratch) error {
	if len(loops) != len(p.levels) {
		return fmt.Errorf("mapping: %d loop lists for %d levels", len(loops), len(p.levels))
	}
	n := 0
	for _, ll := range loops {
		n += len(ll)
	}
	s.startLoops(n)
	for i, ll := range loops {
		sp := p.kind[i] == spec.SpatialLevel
		for _, l := range ll {
			s.loops = append(s.loops, loopRef{dim: l.Dim, factor: l.Factor, level: i, spatial: sp})
		}
	}
	return nil
}

// layout checks the loops in s.loops and lays them out: it walks the
// levels innermost first, multiplying each level's factors into the
// running tile extents (the last row of tiles) and folding its loops as
// it goes. A level that keeps a tensor gets a copy of the extents at it
// in its row of tiles; the rows of other levels are never read.
func (p *Plan) layout(s *Scratch) error {
	if err := p.check(s); err != nil {
		return err
	}
	nd, nl := len(p.dims), len(p.levels)
	s.folds = resize(s.folds, nl)
	if cap(s.tiles) < (nl+1)*nd {
		s.tiles = make([]int, (nl+1)*nd)
	}
	s.tiles = s.tiles[:(nl+1)*nd]
	extents := s.tiles[nl*nd:]
	for d := range extents {
		extents[d] = 1
	}
	s.macs, s.cycles, s.inst = 1, 1, 1
	next := len(s.loops) - 1
	for h := nl - 1; h >= 0; h-- {
		f := &s.folds[h]
		*f = unitFold
		for ; next >= 0 && s.loops[next].level == h; next-- {
			l := &s.loops[next]
			extents[l.dim] *= l.factor
			factor := int64(l.factor)
			s.macs *= factor
			rel := p.dimRel[l.dim]
			if l.spatial {
				s.inst *= factor
				f.spatial *= factor
				for t := range f.rel {
					if rel&(1<<uint(t)) != 0 {
						f.rel[t] *= factor
					} else {
						f.irr[t] *= factor
					}
				}
				continue
			}
			s.cycles *= factor
			f.temporal *= factor
			// Walking inward-out, a loop is at or outside the level's
			// innermost relevant loop once that loop has been seen.
			f.relTemporal |= rel
			for t := range f.toRelevant {
				if f.relTemporal&(1<<uint(t)) != 0 {
					f.toRelevant[t] *= factor
				}
			}
		}
		if p.keeps[h] != 0 {
			copy(s.tiles[h*nd:(h+1)*nd], extents)
		}
	}
	return nil
}

// WriteLoaded writes the mapping the last successful Load, LoadIndexed
// or ValidateIndexed put in s to dst, with its dimension names, reusing
// dst's loop lists.
func (p *Plan) WriteLoaded(s *Scratch, dst *Mapping) {
	nl := len(p.levels)
	if cap(dst.LevelLoops) < nl {
		dst.LevelLoops = make([][]Loop, nl)
	}
	dst.LevelLoops = dst.LevelLoops[:nl]
	for i := range dst.LevelLoops {
		dst.LevelLoops[i] = dst.LevelLoops[i][:0]
	}
	for _, l := range s.loops {
		dst.LevelLoops[l.level] = append(dst.LevelLoops[l.level], Loop{Dim: p.dims[l.dim], Factor: l.factor})
	}
}

// tileVolume returns the padded tile volume of t at level h, which must
// keep a tensor: its extent along each dimension is the product of
// factors of loops attached to levels at or inside h.
func (p *Plan) tileVolume(s *Scratch, t tensor.Kind, h int) int64 {
	nd := len(p.dims)
	return p.volume(t, s.tiles[h*nd:(h+1)*nd])
}

// reducedAt reports whether the spatial loops at level j are collapsed
// for tensor t when observed from the boundary just above level b (b <=
// j): either the spatial level declares reuse for t, or (outputs only) a
// coalescing transit sits between the boundary and the spatial level.
func (p *Plan) reducedAt(t tensor.Kind, j, b int) bool {
	return p.reuse[j]&kindBit(t) != 0 || t == tensor.Output && p.coalesceFrom[b] < j
}

// isRelevant reports whether dimension d appears in t's projection.
func (p *Plan) isRelevant(t tensor.Kind, d int) bool {
	return t >= 0 && t < tensor.NumKinds && p.relevant[t]&(1<<uint(d)) != 0
}

// refetches returns the refetch multiplier of tensor t crossing the
// boundary just above level b, where h (h >= b) is the first holder of t
// at or inside b: parent traffic is h's tile volume times it. Every
// t-relevant spatial loop outside h multiplies it, and so does every
// irrelevant one not reduced from b. Temporal loops outside h multiply it
// from the innermost t-relevant one outward; the irrelevant ones inside
// that reuse h's tile for free.
func (p *Plan) refetches(s *Scratch, t tensor.Kind, h, b int) int64 {
	mult := int64(1)
	broken := false // a t-relevant temporal loop lies inside the level
	for j := h - 1; j >= 0; j-- {
		f := &s.folds[j]
		mult *= f.rel[t]
		if f.irr[t] != 1 && !p.reducedAt(t, j, b) {
			mult *= f.irr[t]
		}
		switch {
		case broken:
			mult *= f.temporal
		case f.relTemporal&kindBit(t) != 0:
			mult *= f.toRelevant[t]
			broken = true
		}
	}
	return mult
}

// consumption returns the per-layer value count of tensor t crossing the
// boundary just above level b when no holder of t exists at or inside b:
// every MAC consumes one value, collapsed by reused spatial loops inside
// the boundary. A level's irrelevant spatial factors fit its mesh, so
// dividing by their product is dividing by each in turn.
func (p *Plan) consumption(s *Scratch, t tensor.Kind, b int) int64 {
	n := s.macs
	for j := b; j < len(p.levels); j++ {
		if irr := s.folds[j].irr[t]; irr != 1 && p.reducedAt(t, j, b) {
			n /= irr
		}
	}
	return n
}

// crossings returns the per-layer value count of tensor t crossing the
// boundary just above level b. The tile volumes of t's holders must be
// in the folds.
func (p *Plan) crossings(s *Scratch, t tensor.Kind, b int) int64 {
	for h := b; h < len(p.levels); h++ {
		if p.keeps[h]&kindBit(t) != 0 {
			return s.folds[h].tile * p.refetches(s, t, h, b)
		}
	}
	return p.consumption(s, t, b)
}

// multicastCopies returns the number of instance copies receiving each
// multicast parent access of tensor t into holder h from its parent
// holder: the product of reused irrelevant spatial factors between them.
func (p *Plan) multicastCopies(s *Scratch, t tensor.Kind, parent, h int) int64 {
	copies := int64(1)
	for j := parent + 1; j < h; j++ {
		if irr := s.folds[j].irr[t]; irr != 1 && p.reducedAt(t, j, h) {
			copies *= irr
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
// per-level, per-tensor access counts into s: Load, then AnalyzeLoaded.
// The returned Counts belong to s and are overwritten by the next call
// with the same Scratch.
func (p *Plan) AnalyzeInto(m *Mapping, s *Scratch) (*Counts, error) {
	if err := p.Load(m, s); err != nil {
		return nil, err
	}
	return p.AnalyzeLoaded(s), nil
}

// AnalyzeLoaded computes the access counts of the mapping the last
// successful Load or LoadIndexed laid out in s (after a failed load the
// layout is meaningless). The returned Counts belong to s, like
// AnalyzeInto's.
func (p *Plan) AnalyzeLoaded(s *Scratch) *Counts {
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
		mapped *= s.folds[i].spatial
	}

	for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
		if p.spaces&kindBit(t) == 0 {
			continue
		}
		holders := p.holders[t]
		for _, h := range holders {
			s.folds[h].tile = p.tileVolume(s, t, h)
		}
		util := p.utilizationOf(s, t)
		if t != tensor.Output {
			// Inputs and weights flow downward: parent reads fill children.
			for idx, h := range holders {
				tc := &c.PerLevel[h][t]
				tc.Tile = scaleBy(s.folds[h].tile, util)
				if idx == 0 {
					// Top holder: data arrives once.
					tc.Writes += tc.Tile
				}
				// Serve the next-inner holder, or compute directly.
				if idx+1 < len(holders) {
					inner := holders[idx+1]
					pr := scaleBy(s.folds[inner].tile*p.refetches(s, t, inner, inner), util)
					tc.Reads += pr
					c.PerLevel[inner][t].Writes += pr * p.multicastCopies(s, t, h, inner)
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
				tc.Tile = scaleBy(s.folds[h].tile, util)
				if idx == len(holders)-1 {
					// Innermost holder: read-modify-write per update.
					updates := p.consumption(s, t, h+1)
					tc.Writes += updates
					tc.Reads += updates
				}
				if idx > 0 {
					// Drain to the next-outer holder.
					outer := &c.PerLevel[holders[idx-1]][t]
					drains := scaleBy(s.folds[h].tile*p.refetches(s, t, h, h), util)
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
	return c
}
