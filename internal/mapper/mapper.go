// Package mapper searches the mapping space: which loop factors go to
// which hierarchy levels (paper §II-B "Mapping", §III-A "mapping search").
// It provides a deterministic utilization-greedy mapping, seeded random
// sampling, and a Search that evaluates candidates with a caller-supplied
// cost function — the role Timeloop's mapper plays under CiMLoop, where
// thousands of mappings are evaluated per (architecture, layer) pair
// (Table II).
package mapper

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// Options configures mapping generation.
type Options struct {
	// MaxMappings caps the number of candidates generated by Sample.
	MaxMappings int
	// Seed makes sampling deterministic.
	Seed int64
	// Fixed pins loops to levels (e.g. bit-slice dims onto a column
	// mesh); generators never move them. Keyed by level index.
	Fixed map[int][]mapping.Loop
	// SpatialPrefs orders dims for greedy spatial placement per spatial
	// level index. Dims not listed are not placed spatially there.
	SpatialPrefs map[int][]string
	// TemporalLevel selects the storage level that receives leftover
	// temporal loops. Zero or negative (including the zero value) means
	// "outermost storage level"; an explicit level 0 cannot be requested
	// through this field, which is harmless because by convention level 0
	// is the outermost storage level whenever it is a storage level.
	TemporalLevel int
	// TemporalTargets routes specific dims' leftover temporal loops to
	// specific storage levels (e.g. pixel dims cached at a global buffer
	// while weight dims stream from DRAM). Dims not listed use
	// TemporalLevel.
	TemporalTargets map[string]int
	// InnerDims are placed innermost at the temporal level (e.g. reduction
	// dims, so outputs accumulate close to compute). Ordered innermost
	// first.
	InnerDims []string
	// OuterDims are placed outermost (e.g. weight-slice passes, so each
	// pass re-programs weights once instead of per inner iteration).
	// Ordered outermost first.
	OuterDims []string
}

// budget returns MaxMappings, or the default of 100 candidates when it is
// unset.
func (o Options) budget() int {
	if o.MaxMappings <= 0 {
		return 100
	}
	return o.MaxMappings
}

// remainingBound returns the per-dim bound still to cover after the fixed
// loops are applied (ceiling division).
func remainingBound(e *tensor.Einsum, fixed map[int][]mapping.Loop) (map[string]int, error) {
	rem := make(map[string]int, len(e.Dims))
	for _, d := range e.Dims {
		rem[d.Name] = d.Bound
	}
	for lvl, loops := range fixed {
		for _, l := range loops {
			if l.Factor <= 0 {
				return nil, fmt.Errorf("mapper: fixed loop %s at level %d has factor %d", l.Dim, lvl, l.Factor)
			}
			b, ok := rem[l.Dim]
			if !ok {
				return nil, fmt.Errorf("mapper: fixed loop over unknown dim %q", l.Dim)
			}
			rem[l.Dim] = ceilDiv(b, l.Factor)
		}
	}
	return rem, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// meshBudget returns the spatial capacity left at each spatial level after
// fixed loops.
func meshBudget(levels []spec.Level, fixed map[int][]mapping.Loop) map[int]int {
	budget := make(map[int]int)
	for i := range levels {
		if levels[i].Kind == spec.SpatialLevel {
			budget[i] = levels[i].Mesh
		}
	}
	for lvl, loops := range fixed {
		for _, l := range loops {
			if _, ok := budget[lvl]; ok {
				budget[lvl] /= l.Factor
			}
		}
	}
	return budget
}

// storageLevels lists storage level indices, outermost first.
func storageLevels(levels []spec.Level) []int {
	var out []int
	for i := range levels {
		if levels[i].Kind == spec.StorageLevel {
			out = append(out, i)
		}
	}
	return out
}

// newMapping seeds a mapping with the fixed loops.
func newMapping(levels []spec.Level, fixed map[int][]mapping.Loop) *mapping.Mapping {
	m := &mapping.Mapping{LevelLoops: make([][]mapping.Loop, len(levels))}
	for lvl, loops := range fixed {
		m.LevelLoops[lvl] = append(m.LevelLoops[lvl], loops...)
	}
	return m
}

// Greedy builds one deterministic mapping: spatial levels are filled
// according to SpatialPrefs (padding to fill the mesh when a dim does not
// divide), and every leftover factor becomes a temporal loop at the chosen
// temporal level, InnerDims innermost.
func Greedy(levels []spec.Level, e *tensor.Einsum, opts Options) (*mapping.Mapping, error) {
	return greedy(levels, e, opts, func(m *mapping.Mapping) error { return mapping.Validate(levels, e, m) })
}

// greedy builds the Greedy mapping and checks it with validate.
func greedy(levels []spec.Level, e *tensor.Einsum, opts Options, validate func(*mapping.Mapping) error) (*mapping.Mapping, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	rem, err := remainingBound(e, opts.Fixed)
	if err != nil {
		return nil, err
	}
	budget := meshBudget(levels, opts.Fixed)
	m := newMapping(levels, opts.Fixed)

	// Spatial placement, innermost spatial level first (closest to
	// compute fills up first — it is the CiM array).
	var spatialIdx []int
	for i := range budget {
		spatialIdx = append(spatialIdx, i)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(spatialIdx)))
	for _, li := range spatialIdx {
		prefs := opts.SpatialPrefs[li]
		for _, d := range prefs {
			// Preferences are architecture-static; dims absent from this
			// workload (e.g. R/S on a matmul) are skipped.
			b, ok := rem[d]
			if !ok {
				continue
			}
			room := budget[li]
			if room <= 1 || b <= 1 {
				continue
			}
			f := b
			if f > room {
				f = room
			}
			m.LevelLoops[li] = append(m.LevelLoops[li], mapping.Loop{Dim: d, Factor: f})
			budget[li] = room / f
			rem[d] = ceilDiv(b, f)
		}
	}

	// Temporal leftovers.
	tl, err := temporalTarget(levels, opts)
	if err != nil {
		return nil, err
	}
	rank := make(map[string]int, len(opts.InnerDims)+len(opts.OuterDims))
	for i, d := range opts.InnerDims {
		rank[d] = i + 1
	}
	for i, d := range opts.OuterDims {
		rank[d] = -len(opts.OuterDims) + i
	}
	var dims []string
	for d := range rem {
		if rem[d] > 1 {
			dims = append(dims, d)
		}
	}
	// Outermost first: OuterDims, then unlisted dims (sorted for
	// determinism), then InnerDims in reverse preference.
	sort.Slice(dims, func(i, j int) bool {
		pi, pj := rank[dims[i]], rank[dims[j]]
		if pi != pj {
			return pi < pj
		}
		return dims[i] < dims[j]
	})
	storage := map[int]bool{}
	for _, i := range storageLevels(levels) {
		storage[i] = true
	}
	for _, d := range dims {
		target := tl
		if t, ok := opts.TemporalTargets[d]; ok {
			if !storage[t] {
				return nil, fmt.Errorf("mapper: temporal target %d for dim %s is not a storage level", t, d)
			}
			target = t
		}
		m.LevelLoops[target] = append(m.LevelLoops[target], mapping.Loop{Dim: d, Factor: rem[d]})
	}
	if err := validate(m); err != nil {
		return nil, fmt.Errorf("mapper: greedy produced invalid mapping: %w", err)
	}
	return m, nil
}

func temporalTarget(levels []spec.Level, opts Options) (int, error) {
	sl := storageLevels(levels)
	if len(sl) == 0 {
		return 0, errors.New("mapper: hierarchy has no storage level for temporal loops")
	}
	// TemporalLevel <= 0 (including the unset zero value) selects the
	// outermost storage level.
	tl := opts.TemporalLevel
	if tl <= 0 {
		return sl[0], nil
	}
	for _, i := range sl {
		if i == tl {
			return tl, nil
		}
	}
	return 0, fmt.Errorf("mapper: temporal level %d is not a storage level", tl)
}

// Sample generates up to MaxMappings distinct valid mappings by seeded
// random factor splitting and permutation, always including the Greedy
// mapping first. It compiles the layer's mapping.Plan for this one call;
// Search takes a compiled one instead. Every returned mapping is a copy
// the caller owns.
func Sample(levels []spec.Level, e *tensor.Einsum, opts Options) ([]*mapping.Mapping, error) {
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		return nil, err
	}
	var out []*mapping.Mapping
	c := copier{batch: min(opts.budget(), 64)}
	err = sampleSeq(plan, levels, e, opts, nil, func(_ int, m *mapping.Mapping) bool {
		out = append(out, c.copy(m))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sampleSeq generates the exact Sample candidate sequence one mapping at a
// time, calling yield with each candidate's index; yield returning false
// stops generation early. Search prices candidates as this generator
// yields them instead of waiting for the whole sample. plan is the
// compiled count analysis of (levels, e) and validates every candidate:
// with s nil by Plan.Validate, otherwise by Plan.Load into s, so that
// each yielded candidate is already laid out in s.
//
// The yielded mapping is borrowed: it is valid only during the yield
// call, after which the generator draws the next candidate into the same
// memory. A caller that keeps a candidate must copy it.
func sampleSeq(plan *mapping.Plan, levels []spec.Level, e *tensor.Einsum, opts Options, s *mapping.Scratch, yield func(int, *mapping.Mapping) bool) error {
	opts.MaxMappings = opts.budget()
	valid := plan.Validate
	if s != nil {
		valid = func(m *mapping.Mapping) error { return plan.Load(m, s) }
	}
	first, err := greedy(levels, e, opts, valid)
	if err != nil {
		return err
	}
	if !yield(0, first) {
		return nil
	}
	smp, err := newSampler(levels, e, opts, valid)
	if err != nil {
		return err
	}
	n := 1
	smp.stream(newRand(opts.Seed), first, func(m *mapping.Mapping) bool {
		if !yield(n, m) {
			return false
		}
		n++
		return true
	})
	return nil
}

// sampler draws the random candidates of one (levels, einsum, options)
// triple. newSampler resolves the name-keyed options — remaining bounds,
// mesh budgets, spatial preferences, storage levels, fixed loops — into
// index tables once per search, and valid (the layer Plan's check)
// validates draws. A draw works in index space: it splits factors with
// the sampler's divisor table, lays the loops out per level as (dim
// index, factor) pairs, and from them builds the dedup key and writes
// the candidate, with its dim names, into the one scratch mapping all
// draws share. stream lends that mapping to its caller for one call: no
// candidate is copied, and once the buffers have grown no draw
// allocates.
type sampler struct {
	valid   func(*mapping.Mapping) error
	dims    []string      // einsum dimension names; a dim's index is its position
	rem0    []int         // per-dim bound left after the fixed loops
	spatial []spatialSlot // spatial levels, innermost first
	storage []int         // storage levels, outermost first
	fixed   [][]ixLoop    // fixed loops per level
	max     int           // Options.MaxMappings

	// divs caches the ascending divisors of the bounds drawn from, in a
	// table indexed by a hash of the bound; the lists are windows of
	// divBuf. divScratch holds the divisors of a bound whose entry
	// another bound took first.
	divs       [64]divisorList
	divBuf     []int
	divScratch []int

	// Draw state.
	rem   []int
	loops [][]ixLoop // the draw's loops per level
	key   []byte     // the draw's dedup key
	m     mapping.Mapping
}

// ixLoop is a loop with its dim as an index into sampler.dims.
type ixLoop struct{ dim, factor int }

// divisorList is one entry of the sampler's divisor table: the divisors
// of b, ascending.
type divisorList struct {
	b    int
	divs []int
}

// spatialSlot is one spatial level's share of a draw's spatial placement.
type spatialSlot struct {
	level  int
	budget int   // mesh capacity left after the fixed loops
	prefs  []int // preferred dims the einsum has, in preference order
}

func newSampler(levels []spec.Level, e *tensor.Einsum, opts Options, valid func(*mapping.Mapping) error) (*sampler, error) {
	rem, err := remainingBound(e, opts.Fixed)
	if err != nil {
		return nil, err
	}
	s := &sampler{
		valid:   valid,
		dims:    make([]string, len(e.Dims)),
		rem0:    make([]int, len(e.Dims)),
		storage: storageLevels(levels),
		fixed:   make([][]ixLoop, len(levels)),
		max:     opts.MaxMappings,
	}
	index := make(map[string]int, len(e.Dims))
	for i, d := range e.Dims {
		s.dims[i], s.rem0[i] = d.Name, rem[d.Name]
		index[d.Name] = i
	}
	for lvl, loops := range opts.Fixed {
		for _, l := range loops {
			s.fixed[lvl] = append(s.fixed[lvl], ixLoop{index[l.Dim], l.Factor})
		}
	}
	budget := meshBudget(levels, opts.Fixed)
	for li := len(levels) - 1; li >= 0; li-- {
		room, ok := budget[li]
		if !ok {
			continue
		}
		slot := spatialSlot{level: li, budget: room}
		for _, d := range opts.SpatialPrefs[li] {
			// Preferences are architecture-static; dims absent from this
			// workload (e.g. R/S on a matmul) are skipped.
			if i, ok := index[d]; ok {
				slot.prefs = append(slot.prefs, i)
			}
		}
		s.spatial = append(s.spatial, slot)
	}
	s.rem = make([]int, len(s.rem0))
	s.divBuf = make([]int, 0, 64)
	s.loops = make([][]ixLoop, len(levels))
	s.m = mapping.Mapping{LevelLoops: make([][]mapping.Loop, len(levels))}
	return s, nil
}

// stream draws from rng until it has emitted max-1 fresh valid candidates
// or spent max*20 draws: the sampler's budget after the greedy mapping
// first, which is taken already. emit receives each candidate in the
// sampler's scratch mapping, borrowed for the call: the next draw
// overwrites it. Returning false stops the stream.
func (s *sampler) stream(rng *rand.Rand, first *mapping.Mapping, emit func(m *mapping.Mapping) bool) {
	// Sized for the budget, but a budget far above the layer's mapping
	// space is common, so the hint is capped. The keys are slices of one
	// append-only Builder, whose bytes never change once written, so
	// taking a key allocates nothing of its own.
	hint := min(s.max, 1024)
	seen := make(map[string]struct{}, hint)
	var keys strings.Builder
	keys.Grow(32 * hint)
	take := func(key []byte) {
		start := keys.Len()
		keys.Write(key)
		seen[keys.String()[start:]] = struct{}{}
	}
	take(s.keyOf(first))
	produced, tries := 0, 0
	for produced < s.max-1 && tries < s.max*20 {
		tries++
		s.draw(rng)
		if _, dup := seen[string(s.key)]; dup {
			continue
		}
		if s.valid(&s.m) != nil {
			continue
		}
		take(s.key)
		produced++
		if !emit(&s.m) {
			return
		}
	}
}

// draw builds one random candidate (possibly invalid; stream checks) in
// s.loops: a random subset of preferred dims gets random spatial factors,
// every remaining dim is split randomly across storage levels, and each
// storage level's loops are shuffled. It then writes the candidate's key
// to s.key and the candidate itself to s.m.
func (s *sampler) draw(rng *rand.Rand) {
	loops := s.loops
	for i, f := range s.fixed {
		loops[i] = append(loops[i][:0], f...)
	}
	copy(s.rem, s.rem0)

	// Spatial: random subset of preferred dims with random factors.
	for _, slot := range s.spatial {
		room := slot.budget
		for _, d := range slot.prefs {
			b := s.rem[d]
			if room <= 1 || b <= 1 {
				continue
			}
			f := s.randomFactor(rng, b, room)
			if f <= 1 {
				continue
			}
			loops[slot.level] = append(loops[slot.level], ixLoop{d, f})
			room /= f
			s.rem[d] = ceilDiv(b, f)
		}
	}

	// Temporal: split every remaining dim randomly across storage levels
	// (dims visited in declaration order for determinism).
	for d, b := range s.rem {
		for b > 1 {
			li := s.storage[rng.Intn(len(s.storage))]
			f := s.randomFactor(rng, b, b)
			if f <= 1 {
				f = b
			}
			loops[li] = append(loops[li], ixLoop{d, f})
			b = ceilDiv(b, f)
		}
	}
	// Random permutation within each temporal level.
	for _, li := range s.storage {
		ll := loops[li]
		rng.Shuffle(len(ll), func(i, j int) { ll[i], ll[j] = ll[j], ll[i] })
	}

	// The key, and the candidate with its dim names.
	s.key = s.key[:0]
	for li, ll := range loops {
		out := s.m.LevelLoops[li][:0]
		for _, l := range ll {
			s.key = appendKey(s.key, li, l.dim, l.factor)
			out = append(out, mapping.Loop{Dim: s.dims[l.dim], Factor: l.factor})
		}
		s.m.LevelLoops[li] = out
	}
}

// keyOf returns the dedup key of a mapping over the sampler's dims: the
// key draw builds for the same loops.
func (s *sampler) keyOf(m *mapping.Mapping) []byte {
	var key []byte
	for li, ll := range m.LevelLoops {
		for _, l := range ll {
			key = appendKey(key, li, slices.Index(s.dims, l.Dim), l.Factor)
		}
	}
	return key
}

// appendKey appends one loop to a dedup key: its level, dim index and
// factor as uvarints. A key lists every loop, levels outermost first and
// each level's loops in order. Uvarints are prefix-free, so a key decodes
// back to the mapping's loop lists, and since dim names and indices are
// one to one, two mappings get equal keys exactly when their String
// forms are equal.
func appendKey(key []byte, level, dim, factor int) []byte {
	if level|dim|factor < 0x80 { // each uvarint is one byte
		return append(key, byte(level), byte(dim), byte(factor))
	}
	key = binary.AppendUvarint(key, uint64(level))
	key = binary.AppendUvarint(key, uint64(dim))
	return binary.AppendUvarint(key, uint64(factor))
}

// copier makes copies of borrowed mappings that the caller owns. It
// carves each copy's Mapping, loop lists and loops from chunks sized for
// batch copies, so a batch of copies costs three allocations. Levels
// without loops stay nil.
type copier struct {
	batch int
	maps  []mapping.Mapping
	lists [][]mapping.Loop
	loops []mapping.Loop
}

// copy returns a copy of m.
func (c *copier) copy(m *mapping.Mapping) *mapping.Mapping {
	nl, n := len(m.LevelLoops), 0
	for _, l := range m.LevelLoops {
		n += len(l)
	}
	if len(c.maps) == cap(c.maps) {
		c.maps = make([]mapping.Mapping, 0, c.batch)
	}
	if cap(c.lists)-len(c.lists) < nl {
		c.lists = make([][]mapping.Loop, 0, c.batch*nl)
	}
	if cap(c.loops)-len(c.loops) < n {
		c.loops = make([]mapping.Loop, 0, c.batch*n)
	}
	lists := c.lists[len(c.lists) : len(c.lists)+nl : len(c.lists)+nl]
	c.lists = c.lists[:len(c.lists)+nl]
	for i, l := range m.LevelLoops {
		if len(l) == 0 {
			continue
		}
		start := len(c.loops)
		c.loops = append(c.loops, l...)
		lists[i] = c.loops[start:len(c.loops):len(c.loops)]
	}
	c.maps = append(c.maps, mapping.Mapping{LevelLoops: lists})
	return &c.maps[len(c.maps)-1]
}

// randomFactor picks a random divisor of b capped at limit, occasionally
// the limit itself (a padded split). The padded candidate is only added
// when limit does not already divide b — when it does, the divisor count
// already includes it, and adding it again would double its selection
// weight. The rng draws must stay exactly those of the form that
// collected the divisors up to limit into a slice, or every seeded
// candidate sequence changes.
func (s *sampler) randomFactor(rng *rand.Rand, b, limit int) int {
	if limit > b {
		limit = b
	}
	divs := s.divisors(b)
	n := len(divs) // divisors of b up to limit
	for n > 0 && divs[n-1] > limit {
		n--
	}
	cands := n
	if limit < b && b%limit != 0 && (n == 0 || rng.Intn(4) == 0) {
		cands++ // padded split
	}
	if cands == 0 {
		return 1
	}
	k := rng.Intn(cands)
	if k == n {
		return limit
	}
	return divs[k]
}

// divisors returns the divisors of b in ascending order. The first bound
// to hash to an entry of the sampler's table keeps it (b > 0, so no
// entry matches before it is filled), and its divisors are computed once
// per search; a later bound hashing to a taken entry has its divisors
// computed into divScratch on every call.
func (s *sampler) divisors(b int) []int {
	e := &s.divs[uint64(b)*0x9e3779b97f4a7c15>>58]
	switch {
	case e.b == b:
		return e.divs
	case e.b != 0:
		s.divScratch = appendDivisors(s.divScratch[:0], b)
		return s.divScratch
	}
	start := len(s.divBuf)
	s.divBuf = appendDivisors(s.divBuf, b)
	e.b, e.divs = b, s.divBuf[start:len(s.divBuf):len(s.divBuf)]
	return e.divs
}

// appendDivisors appends the divisors of b to dst in ascending order: the
// divisors up to sqrt(b), then their cofactors. A window of dst that an
// earlier call appended stays valid when a later append moves dst,
// since the old backing array is never written again.
func appendDivisors(dst []int, b int) []int {
	start := len(dst)
	for d := 1; d*d <= b; d++ {
		if b%d == 0 {
			dst = append(dst, d)
		}
	}
	for i := len(dst) - 1; i >= start; i-- {
		if d := dst[i]; b/d != d {
			dst = append(dst, b/d)
		}
	}
	return dst
}
