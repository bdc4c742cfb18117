package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

// TestEvaluateMatchesSequential checks the cached, pooled path computes
// exactly what the sequential core evaluator computes.
func TestEvaluateMatchesSequential(t *testing.T) {
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	net := workload.Toy()
	want, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, core.SearchOptions{MaxMappings: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(BatchOptions{})
	got, err := srv.EvaluateCtx(context.Background(), Request{Arch: arch, Net: net, MaxMappings: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.EnergyJ-want.Energy)/want.Energy > 1e-12 {
		t.Fatalf("energy %g, want %g", got.EnergyJ, want.Energy)
	}
	if got.MACs != want.MACs {
		t.Fatalf("MACs %d, want %d", got.MACs, want.MACs)
	}
	if got.NetworkResult == nil || len(got.NetworkResult.PerLayer) != len(net.Layers) {
		t.Fatal("per-layer breakdown missing")
	}
}

func TestSweepGridAndCacheReuse(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 4, MaxMappings: 4})
	reqs := Grid([]string{"base", "macro-b"}, []string{"toy"}, nil, 0, 4)
	if len(reqs) != 2 {
		t.Fatalf("grid size %d, want 2", len(reqs))
	}
	cold, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cold {
		if r.Err != "" {
			t.Fatalf("request %d failed: %s", i, r.Err)
		}
		if r.EnergyJ <= 0 {
			t.Fatalf("request %d energy %g", i, r.EnergyJ)
		}
	}
	afterCold := srv.CacheStats()
	if afterCold.Hits != 0 {
		t.Fatalf("cold sweep must miss everywhere, got %d hits", afterCold.Hits)
	}

	warm, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	afterWarm := srv.CacheStats()
	if afterWarm.Misses != afterCold.Misses {
		t.Fatalf("warm sweep recompiled state: misses %d -> %d", afterCold.Misses, afterWarm.Misses)
	}
	if afterWarm.Hits == 0 {
		t.Fatal("warm sweep must hit the cache")
	}
	// Same seeds, same cached state: identical results.
	for i := range cold {
		if cold[i].EnergyJ != warm[i].EnergyJ {
			t.Fatalf("request %d energy changed across identical sweeps: %g vs %g",
				i, cold[i].EnergyJ, warm[i].EnergyJ)
		}
	}
}

func TestSweepOrderAndErrors(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 8, MaxMappings: 2})
	reqs := []Request{
		{Macro: "base", Network: "toy", Tag: "first"},
		{Macro: "no-such-macro", Network: "toy", Tag: "second"},
		{Macro: "base", Network: "no-such-network", Tag: "third"},
		{Macro: "base", Network: "toy", Tag: "fourth"},
	}
	results, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, want := range []string{"first", "second", "third", "fourth"} {
		if results[i].Tag != want {
			t.Fatalf("result %d tag %q, want %q (order must follow requests)", i, results[i].Tag, want)
		}
	}
	if results[1].Err == "" || results[2].Err == "" {
		t.Fatal("bad requests must report per-request errors")
	}
	if results[0].Err != "" || results[3].Err != "" {
		t.Fatal("good requests must not be poisoned by bad ones")
	}

	table := SweepTable(results)
	s := table.String()
	if !strings.Contains(s, "first") || !strings.Contains(s, "ok") {
		t.Fatalf("table missing rows:\n%s", s)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("table rows %d, want 4", len(table.Rows))
	}

	if _, err := srv.SweepCtx(context.Background(), nil, 0, nil); err == nil {
		t.Fatal("empty sweep must error")
	}
}

func TestScenarioRequests(t *testing.T) {
	srv := NewServer(BatchOptions{MaxMappings: 2})
	res, err := srv.EvaluateCtx(context.Background(), Request{
		Macro: "macro-d", Network: "toy",
		Scenario: "weight-stationary", SystemMacros: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ <= 0 {
		t.Fatalf("energy %g", res.EnergyJ)
	}
	if !strings.Contains(res.Tag, "weight-stationary") {
		t.Fatalf("tag %q should mention the scenario", res.Tag)
	}
	if _, err := srv.EvaluateCtx(context.Background(), Request{Macro: "base", Network: "toy", Scenario: "nope"}); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

func TestRequestValidation(t *testing.T) {
	srv := NewServer(BatchOptions{})
	cases := []Request{
		{},                             // no arch, no net
		{Macro: "base"},                // no net
		{Network: "toy"},               // no arch
		{Macro: "base", Spec: "name:"}, // two arch sources
		{Macro: "base", Network: "toy", Net: workload.Toy()}, // two nets
	}
	for i, req := range cases {
		if _, err := srv.EvaluateCtx(context.Background(), req); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
}

// memoryClassTransitSpec puts a coalescing (transit) level on an SRAM
// buffer class, which binds no circuit model. It passes spec validation.
const memoryClassTransitSpec = `name: p
node_nm: 22
hierarchy:
  - component: buf
    class: sram-buffer
    coalesce: [Inputs]
  - container: c
    children:
      - container: r
        children:
          - component: A
            class: sram-cell
            compute: true
`

// TestSweepRejectsModelessTransitSpec: a spec that binds a memory class to
// a transit level comes back as an item error. The sweep workers have no
// panic recovery, so a nil circuit model reaching layer preparation would
// kill the whole process.
func TestSweepRejectsModelessTransitSpec(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()
	res, err := srv.SweepCtx(context.Background(),
		[]Request{{Spec: memoryClassTransitSpec, Network: "toy", MaxMappings: 2}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] == nil || res[0].Err == "" {
		t.Fatalf("sweep result = %+v, want one item carrying an error", res)
	}
	if !strings.Contains(res[0].Err, "buf") {
		t.Fatalf("error %q should name the offending level", res[0].Err)
	}
}

// TestLayersCap checks the fast-path layer subset.
func TestLayersCap(t *testing.T) {
	srv := NewServer(BatchOptions{MaxMappings: 2})
	res, err := srv.EvaluateCtx(context.Background(), Request{Macro: "base", Network: "resnet18", Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.NetworkResult.PerLayer); n != 2 {
		t.Fatalf("evaluated %d layers, want 2", n)
	}
}

// TestSweepCtxStopsDispatchOnCancel is the regression test for the
// feeder bug: cancelling the parent context mid-sweep must stop
// dispatching remaining grid items instead of draining the whole slice.
func TestSweepCtxStopsDispatchOnCancel(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, MaxMappings: 2})
	reqs := Grid([]string{"base"}, []string{"toy"}, nil, 0, 2)
	for len(reqs) < 16 {
		reqs = append(reqs, reqs[0])
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completions atomic.Int32
	results, err := srv.SweepCtx(ctx, reqs, 1, func(i int, r *Result) {
		if completions.Add(1) == 1 {
			cancel() // cancel as soon as the first item lands
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	filled := 0
	for _, r := range results {
		if r != nil {
			filled++
		}
	}
	// One item completed before the cancel; with a single worker at most
	// one more was already dispatched. The rest must never run.
	if filled > 3 {
		t.Fatalf("%d of %d grid items evaluated after cancellation", filled, len(reqs))
	}
	if filled == 0 {
		t.Fatal("no items completed before cancellation")
	}
}

// TestSweepCtxMatchesSweep checks the ctx-aware path is the same sweep:
// identical results, request order preserved, onDone streamed once per
// item.
func TestSweepCtxMatchesSweep(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 4, MaxMappings: 2})
	reqs := Grid([]string{"base", "macro-b"}, []string{"toy"}, nil, 0, 2)
	want, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]int{}
	got, err := srv.SweepCtx(context.Background(), reqs, 4, func(i int, r *Result) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].EnergyJ != want[i].EnergyJ || got[i].Tag != want[i].Tag {
			t.Fatalf("result %d diverged: %+v vs %+v", i, got[i], want[i])
		}
		if seen[i] != 1 {
			t.Fatalf("item %d reported %d times", i, seen[i])
		}
	}
}
