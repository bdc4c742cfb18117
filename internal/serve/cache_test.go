package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
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

// lookupContext is the server's waiting layer-context lookup for a test
// that holds an engine: it fingerprints the engine's arch and the layer.
func lookupContext(c *Cache, eng *core.Engine, l workload.Layer) (*core.LayerContext, error) {
	return c.layerContext(context.Background(), eng, ArchFingerprint(eng.Arch()), LayerFingerprint(l), l, true)
}

func TestCacheHitMissCounts(t *testing.T) {
	c := NewCache(8)
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	layer := workload.Toy().Layers[0]
	ctx1, err := lookupContext(c, eng, layer)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := lookupContext(c, eng, layer)
	if err != nil {
		t.Fatal(err)
	}
	if ctx1 != ctx2 {
		t.Fatal("second lookup must return the cached layer context")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry / 1 compile", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %g, want 0.5", hr)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4)
	calls := 0
	fail := func() (*core.LayerContext, error) { calls++; return nil, errors.New("boom") }
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
// under -race by CI), each with its own engine as each request that is
// no bare macro name compiles one. Concurrent misses on one layer must
// prepare it once.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(16)
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	net := workload.Toy()
	var wg sync.WaitGroup
	var mu sync.Mutex
	contexts := make(map[string]*core.LayerContext)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				eng, err := c.compile(context.Background(), arch)
				if err != nil {
					t.Error(err)
					return
				}
				for _, l := range net.Layers {
					lctx, err := lookupContext(c, eng, l)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					if prev, ok := contexts[l.Name]; ok && prev != lctx {
						t.Errorf("layer %s: a second context was prepared", l.Name)
					}
					contexts[l.Name] = lctx
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if wantMisses := uint64(len(net.Layers)); st.Misses != wantMisses || st.Compiles != wantMisses {
		t.Fatalf("stats = %+v, want %d misses and compiles (singleflight)", st, wantMisses)
	}
}

// TestCacheEnginesShareColumnSums: engines compiled for the cache, by a
// server that boots warm too, prepare layers through the cache's one
// preparation memo (operand stages and column sums), which the cache's
// entry capacity bounds.
func TestCacheEnginesShareColumnSums(t *testing.T) {
	c := NewCache(2)
	arch, err := macros.ByName("macro-a")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := c.compile(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range workload.ResNet18().Layers[:4] {
		if _, err := lookupContext(c, eng, l); err != nil {
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
		t.Fatalf("cache stats %+v: want one context miss", cs)
	}
	if second.cache.memo.Len() == 0 {
		t.Fatal("the warm server's layer preparation bypassed its memo")
	}
}
