package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/workload"
)

// Stats is a point-in-time snapshot of cache effectiveness (the wire
// type api.CacheStats — the healthz "cache" section).
type Stats = api.CacheStats

// Cache memoizes per-layer amortized contexts under content-addressed
// keys. It is the state that outlives a single evaluation call: across
// requests — and across users — the same (arch, layer, encoding) triple
// is prepared once and reused, the cross-request extension of the
// paper's per-layer amortization. Engines are not cached: compiling one
// costs microseconds, less than fingerprinting its architecture, so a
// Server compiles each request's engine where it resolves the
// architecture (once per bare built-in macro name, see nameMemo).
//
// The cache holds at most its entry capacity, in one bounded memo
// (memo.Memo) that evicts the least recently used entry. An entry
// evicted while it is still computing returns its value to the lookups
// waiting on it, and is still persisted.
//
// Concurrent lookups of the same missing key compute the value once; the
// losers block on the winner's result. A lookup that does not wait
// (EvaluateCtx's first pass) instead finds a context still being
// prepared busy, and a preparation of its own that would wait on another
// goroutine's shared column sum (core.TryPrepareLayer) is abandoned;
// neither counts as a hit, a miss or a compile. All methods are safe for
// concurrent use, and cached values are immutable once published.
//
// Below the layer contexts, every engine the server compiles shares the
// cache's one preparation memo (core.PrepareMemo), so a context miss
// reuses whatever another engine of this server already derived from
// the same inputs: the operand stage (encoding, slicing, cell product)
// per distinct (layer operand statistics, unresolved encodings, operand
// and slice precisions) — the statistics its operand PMFs are
// synthesized from, so a hit synthesizes none — and the column sums per
// distinct (cell product, reduction depth). One macro wrapped in several
// system scenarios or macro counts, or layers with equal operand
// statistics, thus prepare their shared stages once per server. The memo
// is bounded by the same entry capacity as the cache, both entry kinds
// counted together and evicted least recently used.
//
// Above the cache, a Server resolves each bare built-in macro name and
// each zoo network name once (nameMemo, names.go) and passes their
// fingerprints in, so a warm lookup of a named request neither rebuilds
// the macro or network nor rehashes it: it is a map lookup per key.
type Cache struct {
	entries memo.Memo[string, *core.LayerContext]

	mu                               sync.Mutex // guards the counters
	hits, misses, restored, compiles uint64

	// memo is the preparation memo shared by every engine compiled for
	// the cache (compile).
	memo *core.PrepareMemo

	// onFill, when set (before first use), is invoked after each
	// successful compile — outside the cache lock — with the entry's key,
	// context, and measured cost (the persistence layer's write-behind).
	onFill func(key string, lctx *core.LayerContext, costSec float64)
}

// DefaultCacheEntries bounds the cache when BatchOptions leave it zero.
// The layer contexts of the deepest zoo network fit ~60 slots, so 512
// holds several macro/network working sets at once.
const DefaultCacheEntries = 512

// NewCache returns a cache bounded to maxEntries (DefaultCacheEntries if
// maxEntries <= 0).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	c := &Cache{memo: core.NewPrepareMemo(maxEntries)}
	c.entries.Init(maxEntries)
	return c
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.entries.Evictions(),
		Entries: c.entries.Len(), Restored: c.restored, Compiles: c.compiles,
	}
}

// getOrCompute returns the cached value for key, computing it on miss.
// Failed computations are not cached, so a later request retries. Unless
// wait, an entry still being computed is not waited for, and a
// computation that failed with core.ErrPrepareBusy (it would have
// waited) is no miss: both return that error. A waiting lookup that
// lands on such an abandoned computation computes afresh.
func (c *Cache) getOrCompute(key string, compute func() (*core.LayerContext, error), wait bool) (*core.LayerContext, error) {
	for {
		start := time.Now()
		v, hit, err := c.entries.Get(key, wait, compute)
		if errors.Is(err, core.ErrPrepareBusy) {
			if wait {
				continue
			}
			return nil, err
		}
		c.mu.Lock()
		if hit {
			c.hits++
		} else {
			c.misses++
		}
		compiled := !hit && err == nil
		if compiled {
			c.compiles++
		}
		onFill := c.onFill
		c.mu.Unlock()
		if compiled && onFill != nil {
			// A miss waited for its entry's fill: the lookup's time is the
			// compile's cost.
			onFill(key, v, time.Since(start).Seconds())
		}
		return v, err
	}
}

// admit inserts an already-computed value (a warm-start restore) as the
// most recently used entry, under the capacity bound. Existing keys win:
// admit never replaces a live entry. Admitted entries do not trigger
// onFill (they came from disk; re-persisting them would be a no-op
// cycle).
func (c *Cache) admit(key string, lctx *core.LayerContext) {
	if c.entries.Add(key, lctx) {
		c.mu.Lock()
		c.restored++
		c.mu.Unlock()
	}
}

// compile compiles the engine for an architecture, sharing the cache's
// preparation memo, and books the compile to the caller's span as the
// "compile" phase.
func (c *Cache) compile(ctx context.Context, arch *core.Arch) (*core.Engine, error) {
	defer obs.Timed(ctx, "compile")()
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	return eng.WithPrepareMemo(c.memo), nil
}

// layerContext returns the amortized per-layer state for (engine,
// layer), running the data-value-dependent pipeline (Algorithm 1 lines
// 3-7) at most once per (arch, layer, encoding) fingerprint: archFP is
// the engine's ArchFingerprint and layerFP the layer's LayerFingerprint.
// When this lookup's caller is the singleflight winner, the inline
// preparation is booked to the caller's span as the "compile" phase.
// Losers that merely block on the winner's fill record nothing under
// "compile" — their wait shows up as cache time, which is what it is to
// them. Unless wait, it returns core.ErrPrepareBusy where it would wait
// on another goroutine's work (see getOrCompute).
//
// A context whose per-level energy tables do not match the engine's
// flattened level count is structurally unusable (indexing would panic
// mid-evaluation). Freshly computed contexts always match; a restored
// one could drift (a record copied between incompatible cache dirs, or
// payload-schema drift the envelope version did not catch), so mismatches
// are dropped and recomputed — the write-behind hook then overwrites the
// bad record under the same key.
func (c *Cache) layerContext(ctx context.Context, eng *core.Engine, archFP, layerFP string, l workload.Layer, wait bool) (*core.LayerContext, error) {
	key := contextKey(archFP, layerFP)
	compute := func() (*core.LayerContext, error) {
		defer obs.Timed(ctx, "compile")()
		if wait {
			return eng.PrepareLayer(l)
		}
		return eng.TryPrepareLayer(l)
	}
	levels := len(eng.Arch().Levels)
	for attempt := 0; ; attempt++ {
		lctx, err := c.getOrCompute(key, compute, wait)
		if err != nil {
			return nil, err
		}
		if lctx.LevelCount() == levels {
			return lctx, nil
		}
		if attempt > 0 { // a freshly computed context can never mismatch
			return nil, fmt.Errorf("serve: layer context for %q has %d level tables, engine has %d levels",
				l.Name, lctx.LevelCount(), levels)
		}
		c.invalidate(key, lctx)
	}
}

// invalidate drops the cached entry under key if it still holds lctx.
func (c *Cache) invalidate(key string, lctx *core.LayerContext) { c.entries.Remove(key, lctx) }
