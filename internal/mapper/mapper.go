// Package mapper searches the mapping space: which loop factors go to
// which hierarchy levels (paper §II-B "Mapping", §III-A "mapping search").
// It provides a deterministic utilization-greedy mapping, seeded random
// sampling, and a Search that evaluates candidates with a caller-supplied
// cost function — the role Timeloop's mapper plays under CiMLoop, where
// thousands of mappings are evaluated per (architecture, layer) pair
// (Table II).
package mapper

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

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

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Greedy builds one deterministic mapping: spatial levels are filled
// according to SpatialPrefs (padding to fill the mesh when a dim does not
// divide), and every leftover factor becomes a temporal loop at the chosen
// temporal level, InnerDims innermost. It is the first candidate of every
// search, built by the same code in pooled memory; Greedy returns a copy
// the caller owns.
func Greedy(levels []spec.Level, e *tensor.Einsum, opts Options) (*mapping.Mapping, error) {
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		return nil, err
	}
	st := getState()
	defer st.release()
	s := &st.smp
	if err := s.reset(plan, &st.scratch, false, levels, e, opts); err != nil {
		return nil, err
	}
	if err := s.greedy(opts); err != nil {
		return nil, err
	}
	return (&copier{batch: 1}).copy(s.named()), nil
}

// Sample generates up to MaxMappings distinct valid mappings by seeded
// random factor splitting and permutation, always including the Greedy
// mapping first. It compiles the layer's mapping.Plan for this one call;
// Search takes a compiled one instead. Every returned mapping is a copy
// the caller owns; none points into the pooled memory it was drawn in.
func Sample(levels []spec.Level, e *tensor.Einsum, opts Options) ([]*mapping.Mapping, error) {
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		return nil, err
	}
	st := getState()
	defer st.release()
	var out []*mapping.Mapping
	c := copier{batch: min(opts.budget(), 64)}
	err = st.sampleSeq(plan, levels, e, opts, false, func(int) bool {
		out = append(out, c.copy(st.smp.named()))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// searchState is the mutable memory of one search: the sampler's tables
// and buffers, the rand source, the Scratch every candidate is loaded
// into and the search's best-so-far buffer. Searches take one from
// states and release it when they return, so the memory is reused instead
// of rebuilt, and the pool holds about one state per search running at
// once: it is bounded by concurrency, not by how many layers or
// architectures were searched.
type searchState struct {
	smp     sampler
	src     seedSource // re-seeded in place by each search
	scratch mapping.Scratch
	best    mapping.Mapping
}

var states = sync.Pool{New: func() any { return new(searchState) }}

// maxPooledKeys bounds the dedup set a released state keeps: a search
// that took more keys than this gives its set and key arena up, so that
// one huge budget does not pin its memory in the pool.
const maxPooledKeys = 4096

func getState() *searchState { return states.Get().(*searchState) }

// release returns st to the pool. Nothing of st may be used afterwards,
// and nothing a search returns may point into it.
func (st *searchState) release() {
	s := &st.smp
	s.plan, s.scratch = nil, nil
	if len(s.seen) > maxPooledKeys {
		s.seen, s.keys = nil, nil
	}
	states.Put(st)
}

// sampleSeq generates the exact Sample candidate sequence one mapping at
// a time in st's memory, calling yield with each candidate's index;
// yield returning false stops generation early. Search prices
// candidates as this generator yields them instead of waiting for the
// whole sample. plan is the compiled count analysis of (levels, e), so
// e is valid, and it checks every candidate in st.scratch: with layout
// by loading it there (Plan.LoadIndexed), so that each yielded candidate
// is laid out for analysis, otherwise by Plan.ValidateIndexed.
// st.smp.named() writes the candidate as a named mapping.
//
// The yielded candidate is borrowed from st: it is valid only during the
// yield call, after which the generator draws the next candidate into
// the same memory, and once st is released it belongs to the next
// search. A caller that keeps a candidate must copy it.
func (st *searchState) sampleSeq(plan *mapping.Plan, levels []spec.Level, e *tensor.Einsum, opts Options, layout bool, yield func(int) bool) error {
	s := &st.smp
	if err := s.reset(plan, &st.scratch, layout, levels, e, opts); err != nil {
		return err
	}
	if err := s.greedy(opts); err != nil {
		return err
	}
	s.take()
	if !yield(0) {
		return nil
	}
	st.src.Seed(opts.Seed)
	s.stream(&st.src, yield)
	return nil
}

// sampler generates the candidates of one (levels, einsum, options)
// triple in memory that outlives the search: it is part of a pooled
// searchState, and reset refills it for each search. reset resolves the
// name-keyed options (remaining bounds, mesh budgets, spatial
// preferences, storage levels, fixed loops) into dim-index tables, and
// the greedy mapping and every random draw are built from those tables,
// in index space: a candidate is laid out per level as (dim index,
// factor) loops, from which the sampler builds its dedup key and which
// the Plan checks in the Scratch directly (and, for a search, lays out
// there for analysis). Dim names are written only on request, by named,
// into m, the one mapping all candidates share. Candidates are lent,
// never copied: they are valid until the next candidate is built, and the
// whole sampler belongs to the next search once its state is released,
// so nothing a search hands back may point into it. Once its buffers have
// grown, neither reset nor a candidate allocates.
type sampler struct {
	plan    *mapping.Plan    // checks candidates
	scratch *mapping.Scratch // the Plan checks each candidate in it
	layout  bool             // the Plan also lays each valid candidate out in scratch

	dims    []string              // einsum dimension names; a dim's index is its position
	rem0    []int                 // per-dim bound left after the fixed loops
	spatial []spatialSlot         // spatial levels, innermost first
	prefs   []int                 // the slots' preferred dims, slot after slot
	storage []int                 // storage levels, outermost first
	fixed   [][]mapping.IndexLoop // fixed loops per level
	max     int                   // the candidate budget

	// divs caches the ascending divisors of the bounds drawn from, in a
	// table indexed by a hash of the bound; the lists are windows of
	// divBuf. divScratch holds the divisors of a bound whose entry
	// another bound took first.
	divs       [64]divisorList
	divBuf     []int
	divScratch []int

	// seen is the dedup set: the keys of the candidates taken, as
	// strings over the bytes of keys, an append-only arena (see take).
	seen map[string]struct{}
	keys []byte

	// Candidate state.
	rem   []int
	loops [][]mapping.IndexLoop // the candidate's loops per level
	key   []byte                // the candidate's dedup key
	m     mapping.Mapping       // the candidate with its dim names, written by named
	order []int                 // the greedy mapping's temporal dims, outermost first
}

// divisorList is one entry of the sampler's divisor table: the divisors
// of b, ascending.
type divisorList struct {
	b    int
	divs []int
}

// spatialSlot is one spatial level's share of a candidate's spatial
// placement.
type spatialSlot struct {
	level  int
	budget int // mesh capacity left after the fixed loops
	// prefs[lo:hi] of the sampler are the preferred dims the einsum has,
	// in preference order.
	lo, hi int
}

// resetLists returns l with n empty lists, reusing the lists' memory.
func resetLists[T any](l [][]T, n int) [][]T {
	l = slices.Grow(l[:0], n)[:n]
	for i := range l {
		l[i] = l[i][:0]
	}
	return l
}

// reset readies s for a search of e, a valid einsum, on levels under
// opts, checking candidates with plan in scratch and, with layout, laying
// them out there: it fills the dim-index tables and empties the divisor
// table, the dedup set and the candidate buffers, keeping their memory.
func (s *sampler) reset(plan *mapping.Plan, scratch *mapping.Scratch, layout bool, levels []spec.Level, e *tensor.Einsum, opts Options) error {
	s.plan, s.scratch, s.layout = plan, scratch, layout
	nl := len(levels)
	s.dims, s.rem0 = s.dims[:0], s.rem0[:0]
	for _, d := range e.Dims {
		s.dims = append(s.dims, d.Name)
		s.rem0 = append(s.rem0, d.Bound)
	}
	s.fixed = resetLists(s.fixed, nl)
	for lvl, loops := range opts.Fixed {
		for _, l := range loops {
			if l.Factor <= 0 {
				return fmt.Errorf("mapper: fixed loop %s at level %d has factor %d", l.Dim, lvl, l.Factor)
			}
			d := slices.Index(s.dims, l.Dim)
			if d < 0 {
				return fmt.Errorf("mapper: fixed loop over unknown dim %q", l.Dim)
			}
			if lvl < 0 || lvl >= nl {
				return fmt.Errorf("mapper: fixed loop %s at level %d of a %d-level hierarchy", l.Dim, lvl, nl)
			}
			s.rem0[d] = ceilDiv(s.rem0[d], l.Factor)
			s.fixed[lvl] = append(s.fixed[lvl], mapping.IndexLoop{Dim: d, Factor: l.Factor})
		}
	}
	s.spatial, s.prefs = s.spatial[:0], s.prefs[:0]
	for li := nl - 1; li >= 0; li-- {
		if levels[li].Kind != spec.SpatialLevel {
			continue
		}
		room := levels[li].Mesh
		for _, l := range s.fixed[li] {
			room /= l.Factor
		}
		lo := len(s.prefs)
		for _, name := range opts.SpatialPrefs[li] {
			// Preferences are architecture-static; dims absent from this
			// workload (e.g. R/S on a matmul) are skipped.
			if d := slices.Index(s.dims, name); d >= 0 {
				s.prefs = append(s.prefs, d)
			}
		}
		s.spatial = append(s.spatial, spatialSlot{level: li, budget: room, lo: lo, hi: len(s.prefs)})
	}
	s.storage = s.storage[:0]
	for i := range levels {
		if levels[i].Kind == spec.StorageLevel {
			s.storage = append(s.storage, i)
		}
	}
	s.max = opts.budget()

	clear(s.divs[:])
	s.divBuf = s.divBuf[:0]
	// The set is cleared before the arena under its keys is rewound.
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	} else {
		clear(s.seen)
	}
	s.keys = s.keys[:0]
	s.rem = slices.Grow(s.rem[:0], len(s.dims))[:len(s.dims)]
	s.loops = resetLists(s.loops, nl)
	return nil
}

// begin starts a candidate in s.loops: each level holds its fixed loops,
// and s.rem each dim's bound left after them.
func (s *sampler) begin() [][]mapping.IndexLoop {
	for i, f := range s.fixed {
		s.loops[i] = append(s.loops[i][:0], f...)
	}
	copy(s.rem, s.rem0)
	return s.loops
}

// greedy lays the Greedy mapping out in s.loops: the fixed loops, then
// at each spatial level, innermost first, the preferred dims as large as
// the mesh allows, then every dim's leftover factor as one temporal loop
// at its temporal level. It builds the mapping's key in s.key and checks
// it.
func (s *sampler) greedy(opts Options) error {
	loops := s.begin()
	for _, slot := range s.spatial {
		room := slot.budget
		for _, d := range s.prefs[slot.lo:slot.hi] {
			b := s.rem[d]
			if room <= 1 || b <= 1 {
				continue
			}
			f := min(b, room)
			loops[slot.level] = append(loops[slot.level], mapping.IndexLoop{Dim: d, Factor: f})
			room /= f
			s.rem[d] = ceilDiv(b, f)
		}
	}

	tl, err := s.temporalLevel(opts.TemporalLevel)
	if err != nil {
		return err
	}
	s.order = s.order[:0]
	for d, b := range s.rem {
		if b > 1 {
			s.order = append(s.order, d)
		}
	}
	// Outermost first by temporalRank; unlisted dims by name.
	slices.SortFunc(s.order, func(a, b int) int {
		da, db := s.dims[a], s.dims[b]
		return cmp.Or(cmp.Compare(temporalRank(&opts, da), temporalRank(&opts, db)), strings.Compare(da, db))
	})
	for _, d := range s.order {
		target := tl
		if t, ok := opts.TemporalTargets[s.dims[d]]; ok {
			if !slices.Contains(s.storage, t) {
				return fmt.Errorf("mapper: temporal target %d for dim %s is not a storage level", t, s.dims[d])
			}
			target = t
		}
		loops[target] = append(loops[target], mapping.IndexLoop{Dim: d, Factor: s.rem[d]})
	}
	s.buildKey()
	if err := s.check(); err != nil {
		return fmt.Errorf("mapper: greedy produced invalid mapping: %w", err)
	}
	return nil
}

// temporalRank is d's place in the greedy mapping's temporal order,
// outermost first: OuterDims in order (negative ranks), then unlisted
// dims (0), then InnerDims in reverse preference (from 1). A dim listed
// twice takes its last place, and OuterDims outranks InnerDims.
func temporalRank(opts *Options, d string) int {
	for i := len(opts.OuterDims) - 1; i >= 0; i-- {
		if opts.OuterDims[i] == d {
			return i - len(opts.OuterDims)
		}
	}
	for i := len(opts.InnerDims) - 1; i >= 0; i-- {
		if opts.InnerDims[i] == d {
			return i + 1
		}
	}
	return 0
}

// temporalLevel returns the storage level that receives leftover
// temporal loops: tl itself, or the outermost storage level when tl is
// zero or negative (including the unset zero value).
func (s *sampler) temporalLevel(tl int) (int, error) {
	if len(s.storage) == 0 {
		return 0, errors.New("mapper: hierarchy has no storage level for temporal loops")
	}
	if tl <= 0 {
		return s.storage[0], nil
	}
	if !slices.Contains(s.storage, tl) {
		return 0, fmt.Errorf("mapper: temporal level %d is not a storage level", tl)
	}
	return tl, nil
}

// check validates the candidate in s.loops with the search's Plan in the
// Scratch, laying it out there when s.layout is set.
func (s *sampler) check() error {
	if s.layout {
		return s.plan.LoadIndexed(s.loops, s.scratch)
	}
	return s.plan.ValidateIndexed(s.loops, s.scratch)
}

// take adds the current candidate's key to the dedup set. The key's
// bytes are appended to the arena s.keys, and the set holds a string
// over them, so once the arena has grown taking a key allocates
// nothing. Within a search the arena is append-only: growing it moves
// the keys taken next to a new array and leaves the old one, which the
// earlier strings still reference, unchanged. reset clears the set
// before it rewinds the arena, so no string outlives its bytes.
func (s *sampler) take() {
	start := len(s.keys)
	s.keys = append(s.keys, s.key...)
	k := s.keys[start:]
	s.seen[unsafe.String(unsafe.SliceData(k), len(k))] = struct{}{}
}

// stream draws from src until it has yielded max-1 fresh valid
// candidates or spent max*20 draws: the sampler's budget after the
// greedy mapping, which is taken already. yield receives each
// candidate's index (from 1); the candidate is in s.loops and checked in
// the Scratch, borrowed for the call: the next draw overwrites it.
// Returning false stops the stream.
func (s *sampler) stream(src *seedSource, yield func(int) bool) {
	produced, tries := 0, 0
	for produced < s.max-1 && tries < s.max*20 {
		tries++
		s.draw(src)
		if _, dup := s.seen[string(s.key)]; dup {
			continue
		}
		if s.check() != nil {
			continue
		}
		s.take()
		produced++
		if !yield(produced) {
			return
		}
	}
}

// draw builds one random candidate (possibly invalid; stream checks) in
// s.loops: a random subset of preferred dims gets random spatial factors,
// every remaining dim is split randomly across storage levels, and each
// storage level's loops are shuffled. It then builds the candidate's key
// in s.key. Every draw is one of math/rand's Rand.Intn and Shuffle
// draws, made on src directly (see rng.go).
func (s *sampler) draw(src *seedSource) {
	loops := s.begin()

	// Spatial: random subset of preferred dims with random factors.
	for _, slot := range s.spatial {
		room := slot.budget
		for _, d := range s.prefs[slot.lo:slot.hi] {
			b := s.rem[d]
			if room <= 1 || b <= 1 {
				continue
			}
			f := s.randomFactor(src, b, room)
			if f <= 1 {
				continue
			}
			loops[slot.level] = append(loops[slot.level], mapping.IndexLoop{Dim: d, Factor: f})
			room /= f
			s.rem[d] = ceilDiv(b, f)
		}
	}

	// Temporal: split every remaining dim randomly across storage levels
	// (dims visited in declaration order for determinism).
	for d, b := range s.rem {
		for b > 1 {
			li := s.storage[src.Intn(len(s.storage))]
			f := s.randomFactor(src, b, b)
			if f <= 1 {
				f = b
			}
			loops[li] = append(loops[li], mapping.IndexLoop{Dim: d, Factor: f})
			b = ceilDiv(b, f)
		}
	}
	// Random permutation within each temporal level.
	for _, li := range s.storage {
		shuffle(src, loops[li])
	}
	s.buildKey()
}

// buildKey builds the dedup key of the candidate in s.loops in s.key.
func (s *sampler) buildKey() {
	s.key = s.key[:0]
	for li, ll := range s.loops {
		for _, l := range ll {
			s.key = appendKey(s.key, li, l.Dim, l.Factor)
		}
	}
}

// named writes the candidate that passed check, with its dim names, to
// s.m and returns it: borrowed like the candidate itself.
func (s *sampler) named() *mapping.Mapping {
	s.plan.WriteLoaded(s.scratch, &s.m)
	return &s.m
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
// weight. The draws must stay exactly those of the form that
// collected the divisors up to limit into a slice, or every seeded
// candidate sequence changes.
func (s *sampler) randomFactor(src *seedSource, b, limit int) int {
	if limit > b {
		limit = b
	}
	divs := s.divisors(b)
	n := len(divs) // divisors of b up to limit
	for n > 0 && divs[n-1] > limit {
		n--
	}
	cands := n
	if limit < b && b%limit != 0 && (n == 0 || src.Intn(4) == 0) {
		cands++ // padded split
	}
	if cands == 0 {
		return 1
	}
	k := src.Intn(cands)
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
