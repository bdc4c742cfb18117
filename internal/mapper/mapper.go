// Package mapper searches the mapping space: which loop factors go to
// which hierarchy levels (paper §II-B "Mapping", §III-A "mapping search").
// It provides a deterministic utilization-greedy mapping, seeded random
// sampling, and a Search that evaluates candidates with a caller-supplied
// cost function — the role Timeloop's mapper plays under CiMLoop, where
// thousands of mappings are evaluated per (architecture, layer) pair
// (Table II).
package mapper

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

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
	// Shards splits candidate generation across this many independent
	// seeded streams (shard g draws from Seed ^ g) running concurrently,
	// merged by a fixed round-robin interleave with cross-shard dedup so
	// the candidate sequence — and therefore any search winner — is a
	// pure function of (Seed, Shards), never of scheduling. Shards == 1
	// runs the sharded pipeline with a single stream and reproduces the
	// unsharded sequence byte-for-byte; 0 or negative (the zero value)
	// uses the plain in-line generator, also byte-identical. Values > 1
	// change which candidates are sampled, so results are comparable
	// only at equal (Seed, Shards).
	Shards int
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
	if err := mapping.Validate(levels, e, m); err != nil {
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
// mapping first.
func Sample(levels []spec.Level, e *tensor.Einsum, opts Options) ([]*mapping.Mapping, error) {
	var out []*mapping.Mapping
	err := sampleSeq(levels, e, opts, func(_ int, m *mapping.Mapping) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sampleSeq generates the exact Sample candidate sequence one mapping at a
// time, calling yield with each candidate's index; yield returning false
// stops generation early. SearchParallelCtx feeds its worker pool from
// this generator so candidate evaluation overlaps generation instead of
// waiting for the whole sample. Options.Shards >= 1 routes through the
// concurrent sharded pipeline (sampleSeqSharded); the sequence stays a
// deterministic function of (Seed, Shards) either way.
func sampleSeq(levels []spec.Level, e *tensor.Einsum, opts Options, yield func(int, *mapping.Mapping) bool) error {
	if opts.MaxMappings <= 0 {
		opts.MaxMappings = 100
	}
	greedy, err := Greedy(levels, e, opts)
	if err != nil {
		return err
	}
	if !yield(0, greedy) {
		return nil
	}
	s, err := newSampler(levels, e, opts)
	if err != nil {
		return err
	}
	if opts.Shards >= 1 {
		return sampleSeqSharded(s, opts, greedy.String(), yield)
	}
	n := 1
	seen := map[string]bool{greedy.String(): true}
	s.stream(rand.New(rand.NewSource(opts.Seed)), seen, func(_ string, m *mapping.Mapping) bool {
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
// mesh budgets, spatial preferences, storage levels — into index tables
// once per search, and compiles the layer's mapping.Plan for validation.
// A draw reuses one scratch mapping and key buffer, so rejected draws
// allocate nothing; only accepted candidates are copied out. The tables
// are read-only; fork gives each concurrent stream its own draw state.
type sampler struct {
	plan    *mapping.Plan
	dims    []string         // einsum dimension names; a dim's index is its position
	rem0    []int            // per-dim bound left after the fixed loops
	spatial []spatialSlot    // spatial levels, innermost first
	storage []int            // storage levels, outermost first
	fixed   [][]mapping.Loop // fixed loops per level
	max     int              // Options.MaxMappings

	// Draw state.
	rem []int
	m   mapping.Mapping
	key []byte
}

// spatialSlot is one spatial level's share of a draw's spatial placement.
type spatialSlot struct {
	level  int
	budget int   // mesh capacity left after the fixed loops
	prefs  []int // preferred dims the einsum has, in preference order
}

func newSampler(levels []spec.Level, e *tensor.Einsum, opts Options) (*sampler, error) {
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		return nil, err
	}
	rem, err := remainingBound(e, opts.Fixed)
	if err != nil {
		return nil, err
	}
	s := &sampler{
		plan:    plan,
		dims:    make([]string, len(e.Dims)),
		rem0:    make([]int, len(e.Dims)),
		storage: storageLevels(levels),
		fixed:   newMapping(levels, opts.Fixed).LevelLoops,
		max:     opts.MaxMappings,
	}
	index := make(map[string]int, len(e.Dims))
	for i, d := range e.Dims {
		s.dims[i], s.rem0[i] = d.Name, rem[d.Name]
		index[d.Name] = i
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
	s.initDraw()
	return s, nil
}

// initDraw gives s draw state of its own.
func (s *sampler) initDraw() {
	s.rem = make([]int, len(s.rem0))
	s.m = mapping.Mapping{LevelLoops: make([][]mapping.Loop, len(s.fixed))}
	s.key = nil
}

// fork returns a sampler sharing s's tables with draw state of its own.
func (s *sampler) fork() *sampler {
	f := *s
	f.initDraw()
	return &f
}

// stream draws from rng until it has emitted max-1 fresh valid candidates
// or spent max*20 draws: the budget of the unsharded sampler after the
// greedy mapping, and of every shard. seen holds the keys already taken
// (at least the greedy mapping's) and gains each emitted key. emit
// receives each candidate, a copy the caller owns, with its String key;
// returning false stops the stream.
func (s *sampler) stream(rng *rand.Rand, seen map[string]bool, emit func(key string, m *mapping.Mapping) bool) {
	produced, tries := 0, 0
	for produced < s.max-1 && tries < s.max*20 {
		tries++
		s.draw(rng)
		s.key = s.m.AppendTo(s.key[:0])
		if seen[string(s.key)] {
			continue
		}
		if s.plan.Validate(&s.m) != nil {
			continue
		}
		key := string(s.key)
		seen[key] = true
		produced++
		if !emit(key, cloneMapping(&s.m)) {
			return
		}
	}
}

// draw builds one random candidate (possibly invalid; stream checks) in
// s.m: a random subset of preferred dims gets random spatial factors,
// every remaining dim is split randomly across storage levels, and each
// storage level's loops are shuffled.
func (s *sampler) draw(rng *rand.Rand) {
	loops := s.m.LevelLoops
	for i := range loops {
		loops[i] = append(loops[i][:0], s.fixed[i]...)
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
			f := randomFactor(rng, b, room)
			if f <= 1 {
				continue
			}
			loops[slot.level] = append(loops[slot.level], mapping.Loop{Dim: s.dims[d], Factor: f})
			room /= f
			s.rem[d] = ceilDiv(b, f)
		}
	}

	// Temporal: split every remaining dim randomly across storage levels
	// (dims visited in declaration order for determinism).
	for d, b := range s.rem {
		for b > 1 {
			li := s.storage[rng.Intn(len(s.storage))]
			f := randomFactor(rng, b, b)
			if f <= 1 {
				f = b
			}
			loops[li] = append(loops[li], mapping.Loop{Dim: s.dims[d], Factor: f})
			b = ceilDiv(b, f)
		}
	}
	// Random permutation within each temporal level.
	for _, li := range s.storage {
		ll := loops[li]
		rng.Shuffle(len(ll), func(i, j int) { ll[i], ll[j] = ll[j], ll[i] })
	}
}

// cloneMapping copies m into one allocation of loops. Levels without
// loops stay nil.
func cloneMapping(m *mapping.Mapping) *mapping.Mapping {
	n := 0
	for _, l := range m.LevelLoops {
		n += len(l)
	}
	flat := make([]mapping.Loop, 0, n)
	out := &mapping.Mapping{LevelLoops: make([][]mapping.Loop, len(m.LevelLoops))}
	for i, l := range m.LevelLoops {
		if len(l) == 0 {
			continue
		}
		start := len(flat)
		flat = append(flat, l...)
		out.LevelLoops[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// randomFactor picks a random divisor of b capped at limit, occasionally
// the limit itself (a padded split). The padded candidate is only added
// when limit does not already divide b — when it does, the divisor count
// already includes it, and adding it again would double its selection
// weight. Divisors are counted and indexed in ascending order without
// being collected into a slice; the rng draws must stay exactly those of
// the collecting form, or every seeded candidate sequence changes.
func randomFactor(rng *rand.Rand, b, limit int) int {
	if limit > b {
		limit = b
	}
	divisors := 0
	for d := 1; d*d <= b; d++ {
		if b%d != 0 {
			continue
		}
		if d <= limit {
			divisors++
		}
		if q := b / d; q != d && q <= limit {
			divisors++
		}
	}
	cands := divisors
	if limit < b && b%limit != 0 && (divisors == 0 || rng.Intn(4) == 0) {
		cands++ // padded split
	}
	if cands == 0 {
		return 1
	}
	k := rng.Intn(cands)
	if k == divisors {
		return limit
	}
	return nthDivisor(b, limit, k)
}

// nthDivisor returns the k-th smallest divisor of b that is at most limit
// (k from 0): first the divisors up to sqrt(b) ascending, then their
// cofactors ascending.
func nthDivisor(b, limit, k int) int {
	d := 1
	for ; d*d <= b; d++ {
		if b%d == 0 && d <= limit {
			if k == 0 {
				return d
			}
			k--
		}
	}
	for d--; d >= 1; d-- {
		if q := b / d; b%d == 0 && q != d && q <= limit {
			if k == 0 {
				return q
			}
			k--
		}
	}
	panic("mapper: divisor index out of range")
}

// Result pairs a mapping with its evaluated cost.
type Result struct {
	Mapping *mapping.Mapping
	Cost    float64
}

// CostFunc prices one candidate mapping for a search.
type CostFunc func(*mapping.Mapping) (float64, error)

// Search generates candidates and returns the one minimizing the caller's
// cost function, along with the number of mappings evaluated. Candidates
// whose evaluation fails are skipped; if every candidate fails, the first
// error is returned.
func Search(levels []spec.Level, e *tensor.Einsum, opts Options, cost CostFunc) (*Result, int, error) {
	return SearchCtx(context.Background(), levels, e, opts, cost)
}

// SearchCtx is Search under a context: cancellation is checked before
// each candidate evaluation, so a cancelled search returns ctx.Err()
// promptly instead of finishing the whole sample.
func SearchCtx(ctx context.Context, levels []spec.Level, e *tensor.Einsum, opts Options, cost CostFunc) (*Result, int, error) {
	cands, err := Sample(levels, e, opts)
	if err != nil {
		return nil, 0, err
	}
	var best *Result
	var firstErr error
	evaluated := 0
	for _, m := range cands {
		if err := ctx.Err(); err != nil {
			return nil, evaluated, err
		}
		c, err := cost(m)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		evaluated++
		if best == nil || c < best.Cost {
			best = &Result{Mapping: m, Cost: c}
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, 0, firstErr
		}
		return nil, 0, errors.New("mapper: no valid mapping found")
	}
	return best, evaluated, nil
}
