package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// builtinMacros names every built-in macro.
var builtinMacros = []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim", "tpu-like", "photonic"}

// TestCostKernelAllocatesNothing is the allocation gate of the search's
// per-candidate work: once its Scratch has grown, analyzing and pricing a
// candidate allocates nothing, on every built-in macro.
func TestCostKernelAllocatesNothing(t *testing.T) {
	for _, name := range builtinMacros {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			t.Fatal(err)
		}
		lctx, err := eng.PrepareLayer(workload.ResNet18().Layers[5])
		if err != nil {
			t.Fatal(err)
		}
		cands, err := mapper.Sample(arch.Levels, lctx.Sliced, arch.MapperOptions(32, 1))
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := eng.CostKernel(lctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cands { // grow the scratch
			if _, err := kernel(m); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := kernel(cands[i%len(cands)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: cost kernel allocates %v times per candidate, want 0", name, allocs)
		}
	}
}

// TestSearchAllocatesPerSearchOnly is the allocation gate of a whole
// serial search: once warm, SearchLayerOptsCtx allocates the same count
// at budgets 1, 16 and 256 on every built-in macro, so nothing per
// candidate and nothing per new best, only the fixed per-search work
// (the Plan, the cost closure, the winner's copy and its Result). The
// search's memory comes from a sync.Pool, which may drop its contents
// at a GC; over 100 runs a refill floors away.
func TestSearchAllocatesPerSearchOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ctx := context.Background()
	for _, name := range builtinMacros {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			t.Fatal(err)
		}
		lctx, err := eng.PrepareLayer(workload.ResNet18().Layers[5])
		if err != nil {
			t.Fatal(err)
		}
		var allocs []float64
		for _, budget := range []int{1, 16, 256} {
			so := core.SearchOptions{MaxMappings: budget, Seed: 1}
			allocs = append(allocs, testing.AllocsPerRun(100, func() {
				if _, _, err := eng.SearchLayerOptsCtx(ctx, lctx, so); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if allocs[0] != allocs[1] || allocs[1] != allocs[2] {
			t.Errorf("%s: a search allocates %v times at budgets 1, 16 and 256, want one count", name, allocs)
		}
	}
}

// TestCostKernelMatchesEvaluateMapping checks the search's scalar is the
// very number EvaluateMapping reports, bit for bit.
func TestCostKernelMatchesEvaluateMapping(t *testing.T) {
	arch, err := macros.ByName("macro-b")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range workload.ResNet18().Layers[:6] {
		lctx, err := eng.PrepareLayer(l)
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := eng.CostKernel(lctx)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := mapper.Sample(arch.Levels, lctx.Sliced, arch.MapperOptions(64, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cands {
			got, err := kernel(m)
			if err != nil {
				t.Fatal(err)
			}
			r, err := eng.EvaluateMapping(lctx, m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(r.Energy) {
				t.Fatalf("%s %s: kernel %v, EvaluateMapping %v", l.Name, m, got, r.Energy)
			}
		}
	}
}

// TestSearchWinnerDeterministic is the regression test for winners that
// used to depend on Go map iteration order: energies were summed over
// per-tensor maps, so repeating one search in one process could change
// the last bits of Energy and, on near-ties, the winning mapping
// (macro-b, ResNet18 layer 4, seed 3 was such a case). On every built-in
// macro and the first ResNet18 layers, searches at each SearchWorkers
// width must agree bit for bit — mapping, Energy and evaluated count.
func TestSearchWinnerDeterministic(t *testing.T) {
	layers := workload.ResNet18().Layers[:5]
	for _, name := range builtinMacros {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range layers {
			lctx, err := eng.PrepareLayer(l)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				mapping   string
				energy    uint64
				evaluated int
			}
			var want outcome
			for _, workers := range []int{1, 2, 4} {
				r, evaluated, err := eng.SearchLayerOptsCtx(context.Background(), lctx,
					core.SearchOptions{MaxMappings: 256, Seed: 3, SearchWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got := outcome{r.Mapping.String(), math.Float64bits(r.Energy), evaluated}
				if workers == 1 {
					want = got
				} else if got != want {
					t.Errorf("%s layer %d: %d workers found %+v, 1 worker %+v", name, li, workers, got, want)
				}
			}
		}
	}
}
