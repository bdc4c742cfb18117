package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/macros"
	"repro/internal/workload"
)

func TestFingerprintStability(t *testing.T) {
	a1, err := macros.Base(macros.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := macros.Base(macros.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ArchFingerprint(a1) != ArchFingerprint(a2) {
		t.Fatal("identical arch specs must hash identically")
	}
	b, err := macros.Base(macros.Config{Rows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if ArchFingerprint(a1) == ArchFingerprint(b) {
		t.Fatal("different array sizes must hash differently")
	}
	// Encoding is part of the content address.
	enc := *a1
	enc.InputEncoding = "offset"
	if ArchFingerprint(a1) == ArchFingerprint(&enc) {
		t.Fatal("different encodings must hash differently")
	}

	net := workload.ResNet18()
	if LayerFingerprint(net.Layers[0]) == LayerFingerprint(net.Layers[5]) {
		t.Fatal("different layers must hash differently")
	}
	if LayerFingerprint(net.Layers[3]) != LayerFingerprint(workload.ResNet18().Layers[3]) {
		t.Fatal("identical layers must hash identically")
	}
}

func TestCacheHitMissCounts(t *testing.T) {
	c := NewCache(8)
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng1, archFP, err := c.EngineCtx(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	eng2, _, err := c.EngineCtx(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if eng1 != eng2 {
		t.Fatal("second lookup must return the cached engine")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	layer := workload.Toy().Layers[0]
	ctx1, err := c.LayerContextCtx(context.Background(), eng1, archFP, layer)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := c.LayerContextCtx(context.Background(), eng1, archFP, layer)
	if err != nil {
		t.Fatal(err)
	}
	if ctx1 != ctx2 {
		t.Fatal("second lookup must return the cached layer context")
	}
	st = c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses / 2 entries", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %g, want 0.5", hr)
	}
}

// cached reports whether key is present without recomputing (the probe
// compute fails the test if it runs).
func cached(t *testing.T, c *Cache, key string) bool {
	t.Helper()
	hit := true
	if _, err := c.getOrCompute(key, func() (any, error) { hit = false; return key, nil }, true); err != nil {
		t.Fatal(err)
	}
	return hit
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4)
	calls := 0
	fail := func() (any, error) { calls++; return nil, errors.New("boom") }
	if _, err := c.getOrCompute("k", fail, true); err == nil {
		t.Fatal("want error")
	}
	if _, err := c.getOrCompute("k", fail, true); err == nil {
		t.Fatal("want error on retry")
	}
	if calls != 2 {
		t.Fatalf("failed computations must not be cached; got %d calls", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed entries must be removed, have %d", st.Entries)
	}
}

// TestCacheConcurrentAccess hammers the cache from many goroutines (run
// under -race by CI). Concurrent misses on one key must compute once.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(16)
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	net := workload.Toy()
	var wg sync.WaitGroup
	var mu sync.Mutex
	engines := make(map[any]bool)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				eng, archFP, err := c.EngineCtx(context.Background(), arch)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				engines[eng] = true
				mu.Unlock()
				for _, l := range net.Layers {
					if _, err := c.LayerContextCtx(context.Background(), eng, archFP, l); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(engines) != 1 {
		t.Fatalf("concurrent misses compiled %d engines, want 1", len(engines))
	}
	st := c.Stats()
	wantMisses := uint64(1 + len(net.Layers)) // one engine + one context per layer
	if st.Misses != wantMisses {
		t.Fatalf("misses = %d, want %d (singleflight)", st.Misses, wantMisses)
	}
}

// TestCacheEnginesShareColumnSums: engines the cache compiles, and
// engines a warm start restores, prepare layers through the cache's one
// preparation memo (operand stages and column sums), which the cache's
// entry capacity bounds.
func TestCacheEnginesShareColumnSums(t *testing.T) {
	c := NewCache(2)
	arch, err := macros.ByName("macro-a")
	if err != nil {
		t.Fatal(err)
	}
	eng, archFP, err := c.EngineCtx(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range workload.ResNet18().Layers[:4] {
		if _, err := c.LayerContextCtx(context.Background(), eng, archFP, l); err != nil {
			t.Fatal(err)
		}
		if n := c.memo.Len(); n == 0 || n > 2 {
			t.Fatalf("after %s the memo holds %d entries, want 1..2", l.Name, n)
		}
	}

	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	if _, err := first.EvaluateCtx(context.Background(), warmRequest()); err != nil {
		t.Fatal(err)
	}
	first.Close()
	second := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	defer second.Close()
	if n := second.cache.memo.Len(); n != 0 {
		t.Fatalf("a warm start filled %d memo entries, want 0", n)
	}
	req := warmRequest()
	req.Network, req.Layers = "resnet18", 1
	if _, err := second.EvaluateCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if cs := second.CacheStats(); cs.Misses != 1 {
		t.Fatalf("cache stats %+v: want the restored engine hit and one context miss", cs)
	}
	if second.cache.memo.Len() == 0 {
		t.Fatal("the restored engine's layer preparation bypassed the server's memo")
	}
}
