package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/workload"
)

// Stats is a point-in-time snapshot of cache effectiveness (the wire
// type api.CacheStats — the healthz "cache" section).
type Stats = api.CacheStats

// Cache memoizes compiled engines and per-layer amortized contexts under
// content-addressed keys. It is the state that outlives a single
// evaluation call: across requests — and across users — the same (arch,
// layer, encoding) triple compiles once and is reused, the cross-request
// extension of the paper's per-layer amortization.
//
// Eviction is cost-aware GDSF rather than pure LRU: each entry's score
// is L + frequency x measured compile cost, where L is an inflation clock
// raised to the evicted score on every eviction. A context that took
// seconds to prepare (a 1024x1024 engine's layer) outlives a toy context
// prepared in microseconds even when the toy one is more recent, while
// the clock ages unused expensive entries out eventually. Entry sizes are
// uniform (slots hold pointers to shared immutable state), so the classic
// GDSF size divisor is 1. Ties — and entries still computing, whose cost
// is unknown and whose score is +Inf so mid-flight work is never
// evicted by a burst of lookups — fall back to least-recently-used order.
//
// Concurrent lookups of the same missing key compute the value once; the
// losers block on the winner's result. A layer-context lookup that does
// not wait (EvaluateCtx's first pass) instead finds a context still being
// prepared busy, and a preparation of its own that would wait on another
// goroutine's shared column sum (core.TryPrepareLayer) is abandoned;
// neither counts as a hit, a miss or a compile. All methods are safe for
// concurrent use, and cached values are immutable once published.
//
// Below the layer contexts, every engine the cache compiles or restores
// shares the cache's one preparation memo (core.PrepareMemo), so a
// context miss reuses whatever another engine of this server already
// derived from the same inputs: the operand stage (encoding, slicing,
// cell product) per distinct (resolved encodings, operand and slice
// precisions, operand PMFs), and the column sums per distinct (cell
// product, reduction depth). One macro wrapped in several system
// scenarios, or layers with equal operand statistics, thus prepare
// their shared stages once per server. The memo is bounded by the same
// entry capacity as the cache, both entry kinds counted together and
// evicted least recently used.
//
// Above the cache, a Server resolves each bare built-in macro name and
// each zoo network name once (nameMemo, names.go) and passes their
// fingerprints in, so a warm lookup of a named request neither rebuilds
// the macro or network nor rehashes it: it is a map lookup per key.
// EngineCtx and LayerContextCtx hash their argument on every call.
type Cache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*cacheEntry
	pq       entryHeap
	clock    float64 // GDSF inflation clock L
	useSeq   uint64  // recency counter for LRU tie-breaking

	hits, misses, evictions, restored, compiles uint64

	// memo is the preparation memo shared by every engine in the cache.
	memo *core.PrepareMemo

	// onFill, when set (before first use), is invoked after each
	// successful compile — outside the cache lock — with the entry's key,
	// value, and measured cost (the persistence layer's write-behind).
	onFill func(key string, val any, costSec float64)
}

// cacheEntry is one cache slot. The compute closure is stored on the
// entry so that every waiter — inserter or concurrent hit — runs the same
// once.Do(fill): whoever gets there first computes, everyone else blocks
// until the value is published.
type cacheEntry struct {
	key     string
	compute func() (any, error)
	once    sync.Once
	val     any
	err     error
	costSec float64 // measured by fill; set under the cache lock
	ready   bool    // val is published; set under the cache lock

	// GDSF bookkeeping, guarded by the cache lock.
	freq     float64
	prio     float64
	lastUsed uint64
	index    int // heap position; -1 once evicted
}

func (e *cacheEntry) fill() {
	start := time.Now()
	e.val, e.err = e.compute()
	e.costSec = time.Since(start).Seconds()
	e.compute = nil
}

// entryHeap is a min-heap on (score, recency): the evicted entry is
// the lowest-score one, oldest first among equals.
type entryHeap []*cacheEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].lastUsed < h[j].lastUsed
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*cacheEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// DefaultCacheEntries bounds the cache when BatchOptions leave it zero. An
// engine entry plus the contexts of the deepest zoo network fit ~60 slots,
// so 512 holds several macro/network working sets at once.
const DefaultCacheEntries = 512

// NewCache returns a cache bounded to maxEntries (DefaultCacheEntries if
// maxEntries <= 0).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Cache{
		capacity: maxEntries,
		items:    make(map[string]*cacheEntry, maxEntries),
		memo:     core.NewPrepareMemo(maxEntries),
	}
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.items), Restored: c.restored, Compiles: c.compiles,
	}
}

// touchLocked records a use: bump frequency and recency, and re-rank the
// entry if its cost is already known (an entry still computing keeps its
// +Inf pin; its score settles when the fill completes).
func (c *Cache) touchLocked(e *cacheEntry) {
	c.useSeq++
	e.lastUsed = c.useSeq
	e.freq++
	if e.index >= 0 && !math.IsInf(e.prio, 1) {
		e.prio = c.clock + e.freq*e.costSec
		heap.Fix(&c.pq, e.index)
	}
}

// insertLocked adds a new entry and applies the capacity bound.
func (c *Cache) insertLocked(e *cacheEntry) {
	c.useSeq++
	e.lastUsed = c.useSeq
	c.items[e.key] = e
	heap.Push(&c.pq, e)
	for len(c.items) > c.capacity {
		victim := heap.Pop(&c.pq).(*cacheEntry)
		delete(c.items, victim.key)
		c.evictions++
		// Inflate the clock so long-resident entries must keep earning
		// their slot against newer arrivals.
		if victim.prio > c.clock && !math.IsInf(victim.prio, 1) {
			c.clock = victim.prio
		}
	}
}

// removeLocked drops an entry if it is still the one cached under its key.
func (c *Cache) removeLocked(e *cacheEntry) {
	if cur, ok := c.items[e.key]; ok && cur == e {
		delete(c.items, e.key)
		if e.index >= 0 {
			heap.Remove(&c.pq, e.index)
		}
	}
}

// getOrCompute returns the cached value for key, computing it on miss.
// Failed computations are not cached: the entry is removed so a later
// request retries. Unless wait, an entry still being computed is not
// waited for, and a computation that failed with core.ErrPrepareBusy
// (it would have waited) is no miss: both return that error. A waiting
// lookup that lands on such an abandoned computation computes afresh.
func (c *Cache) getOrCompute(key string, compute func() (any, error), wait bool) (any, error) {
	for {
		c.mu.Lock()
		if e, ok := c.items[key]; ok {
			if !wait && !e.ready {
				c.mu.Unlock()
				return nil, core.ErrPrepareBusy
			}
			c.hits++
			c.touchLocked(e)
			c.mu.Unlock()
			e.once.Do(e.fill)
			if errors.Is(e.err, core.ErrPrepareBusy) {
				c.mu.Lock()
				c.hits--
				c.removeLocked(e)
				c.mu.Unlock()
				continue
			}
			return e.val, e.err
		}
		c.misses++
		e := &cacheEntry{
			key:     key,
			compute: compute,
			freq:    1,
			prio:    math.Inf(1), // pinned until the fill settles its cost
		}
		c.insertLocked(e)
		c.mu.Unlock()

		e.once.Do(e.fill)

		c.mu.Lock()
		if e.err != nil {
			c.removeLocked(e)
			busy := errors.Is(e.err, core.ErrPrepareBusy)
			if busy {
				c.misses--
			}
			c.mu.Unlock()
			if busy && wait {
				continue
			}
			return e.val, e.err
		}
		// Settle the entry's real score now that its cost is measured. The
		// entry may already have been evicted mid-fill (index < 0); the value
		// is still returned to waiters and still persisted below.
		if e.index >= 0 {
			e.prio = c.clock + e.freq*e.costSec
			heap.Fix(&c.pq, e.index)
		}
		e.ready = true
		c.compiles++
		onFill := c.onFill
		c.mu.Unlock()
		if onFill != nil {
			onFill(e.key, e.val, e.costSec)
		}
		return e.val, e.err
	}
}

// admit inserts an already-computed value (a warm-start restore) through
// the normal insertion path, so the capacity bound and eviction policy
// hold. costSec is the original measured compute cost, preserved on disk,
// which seeds the entry's GDSF weight. Existing keys win: admit never
// replaces a live entry. Admitted entries do not trigger onFill (they
// came from disk; re-persisting them would be a no-op cycle).
func (c *Cache) admit(key string, costSec float64, val any) {
	e := &cacheEntry{key: key, val: val, costSec: costSec, freq: 1, ready: true}
	e.once.Do(func() {}) // mark filled: waiters must never run compute
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.restored++
	e.prio = c.clock + e.freq*e.costSec
	c.insertLocked(e)
}

// EngineCtx returns the compiled engine for an architecture, compiling it
// at most once per content fingerprint, together with that fingerprint
// (ArchFingerprint) for the request's LayerContextCtx lookups. The engine
// shares the cache's preparation memo. When this lookup's caller is the
// singleflight winner, the inline compilation is booked to the caller's
// span as the "compile" phase. Losers that merely block on the
// winner's fill record nothing under "compile" — their wait shows up as
// cache time, which is what it is to them.
func (c *Cache) EngineCtx(ctx context.Context, arch *core.Arch) (*core.Engine, string, error) {
	archFP := ArchFingerprint(arch)
	eng, err := c.engine(ctx, arch, archFP)
	return eng, archFP, err
}

// engine is EngineCtx for a caller that already holds the arch's
// fingerprint (the server's name memo, or its own resolution).
func (c *Cache) engine(ctx context.Context, arch *core.Arch, archFP string) (*core.Engine, error) {
	compile := func() (any, error) {
		defer obs.Timed(ctx, "compile")()
		eng, err := core.NewEngine(arch)
		if err != nil {
			return nil, err
		}
		return eng.WithPrepareMemo(c.memo), nil
	}
	v, err := c.getOrCompute(engineKey(archFP), compile, true)
	if err != nil {
		return nil, err
	}
	if r, ok := v.(*restoredEngine); ok {
		return r.get(compile)
	}
	return v.(*core.Engine), nil
}

// restoredEngine is the value a warm start admits for an engine record.
// An engine is a microsecond compile of its architecture, where decoding
// the record's JSON copy of that architecture costs ~70 µs, so the record
// is not decoded: the first lookup that hits the entry builds the engine
// from its own architecture, whose fingerprint is the record's key, as
// the decoder would have built it from the record's. The entry then
// serves that engine.
type restoredEngine struct {
	once sync.Once
	eng  *core.Engine
	err  error
}

// get returns the restored engine, built by compile on first use. A
// failed build is returned to every caller: a failing architecture
// fails its requests either way.
func (r *restoredEngine) get(compile func() (any, error)) (*core.Engine, error) {
	r.once.Do(func() {
		v, err := compile()
		if err != nil {
			r.err = err
			return
		}
		r.eng = v.(*core.Engine)
	})
	return r.eng, r.err
}

// LayerContextCtx returns the amortized per-layer state for (engine,
// layer), running the data-value-dependent pipeline (Algorithm 1 lines
// 3-7) at most once per (arch, layer, encoding) fingerprint. archFP is
// the engine's fingerprint as EngineCtx returned it. A compilation run
// inline by this lookup lands in the caller's span under "compile" (see
// EngineCtx).
//
// A context whose per-level energy tables do not match the engine's
// flattened level count is structurally unusable (indexing would panic
// mid-evaluation). Freshly computed contexts always match; a restored
// one could drift (a record copied between incompatible cache dirs, or
// payload-schema drift the envelope version did not catch), so mismatches
// are dropped and recomputed — the write-behind hook then overwrites the
// bad record under the same key.
func (c *Cache) LayerContextCtx(ctx context.Context, eng *core.Engine, archFP string, l workload.Layer) (*core.LayerContext, error) {
	return c.layerContext(ctx, eng, archFP, LayerFingerprint(l), l, true)
}

// layerContext is LayerContextCtx for a caller that already holds the
// layer's fingerprint. Unless wait, it returns core.ErrPrepareBusy where
// it would wait on another goroutine's work (see getOrCompute).
func (c *Cache) layerContext(ctx context.Context, eng *core.Engine, archFP, layerFP string, l workload.Layer, wait bool) (*core.LayerContext, error) {
	key := contextKey(archFP, layerFP)
	compute := func() (any, error) {
		defer obs.Timed(ctx, "compile")()
		if wait {
			return eng.PrepareLayer(l)
		}
		return eng.TryPrepareLayer(l)
	}
	levels := len(eng.Arch().Levels)
	for attempt := 0; ; attempt++ {
		v, err := c.getOrCompute(key, compute, wait)
		if err != nil {
			return nil, err
		}
		lctx := v.(*core.LayerContext)
		if lctx.LevelCount() == levels {
			return lctx, nil
		}
		if attempt > 0 { // a freshly computed context can never mismatch
			return nil, fmt.Errorf("serve: layer context for %q has %d level tables, engine has %d levels",
				l.Name, lctx.LevelCount(), levels)
		}
		c.invalidate(key, v)
	}
}

// invalidate drops the cached entry under key if it still holds val.
func (c *Cache) invalidate(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok && e.val == val {
		c.removeLocked(e)
	}
}
