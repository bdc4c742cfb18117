package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

func cancelTestEngine(t *testing.T) (*core.Engine, *core.LayerContext) {
	t.Helper()
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	lctx, err := eng.PrepareLayer(workload.Toy().Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	return eng, lctx
}

// TestSearchLayerCtxCancelled checks an already-cancelled context makes
// the search return ctx.Err() before evaluating any mapping.
func TestSearchLayerCtxCancelled(t *testing.T) {
	eng, lctx := cancelTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, evaluated, err := eng.SearchLayerOptsCtx(ctx, lctx, core.SearchOptions{MaxMappings: 64, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evaluated != 0 {
		t.Fatalf("evaluated %d mappings after cancellation, want 0", evaluated)
	}
}

// countdownCtx reports Canceled after its Err method has been polled a
// fixed number of times: a deterministic stand-in for "cancelled while
// the search is underway" that needs no timing assumptions.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	fired bool
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		c.fired = true
		return context.Canceled
	}
	c.left--
	return nil
}

// TestSearchLayerCtxStopsMidSearch checks cancellation during the search
// aborts the candidate loop instead of finishing the mapping budget.
func TestSearchLayerCtxStopsMidSearch(t *testing.T) {
	eng, lctx := cancelTestEngine(t)
	const budget = 64
	// Sanity: the uncancelled search evaluates more candidates than the
	// countdown allows, so an early return is attributable to the context.
	_, full, err := eng.SearchLayerOptsCtx(context.Background(), lctx, core.SearchOptions{MaxMappings: budget, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full <= 3 {
		t.Skipf("search only evaluates %d candidates; cannot observe an early stop", full)
	}
	ctx := &countdownCtx{Context: context.Background(), left: 3}
	_, evaluated, err := eng.SearchLayerOptsCtx(ctx, lctx, core.SearchOptions{MaxMappings: budget, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !ctx.fired {
		t.Fatal("search never polled the context")
	}
	if evaluated >= full {
		t.Fatalf("evaluated %d of %d candidates despite mid-search cancellation", evaluated, full)
	}
}

// TestEvaluateNetworkCtxDeadline checks an expired deadline propagates
// out of the per-layer pipeline.
func TestEvaluateNetworkCtxDeadline(t *testing.T) {
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = eng.EvaluateNetworkOptsCtx(ctx, workload.Toy(), core.SearchOptions{MaxMappings: 8, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEvaluateNetworkCtxBackground checks a network evaluation under a
// background context is the repeat-weighted sum of its layers' searches,
// layer i searched with Seed+i.
func TestEvaluateNetworkCtxBackground(t *testing.T) {
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	net := workload.Toy()
	got, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, core.SearchOptions{MaxMappings: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := &core.NetworkResult{}
	for i, l := range net.Layers {
		r, evaluated, err := eng.EvaluateLayerOptsCtx(context.Background(), l, core.SearchOptions{MaxMappings: 8, Seed: 3 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want.Add(r, l.Repeat, evaluated)
	}
	if got.Energy != want.Energy || got.TimeSec != want.TimeSec || got.MACs != want.MACs ||
		got.MappingsEvaluated != want.MappingsEvaluated || len(got.PerLayer) != len(want.PerLayer) {
		t.Fatalf("network %+v, sum of layers %+v", got, want)
	}
}
