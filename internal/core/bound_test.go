package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/spec"
	"repro/internal/system"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// kernelCallErr checks one probed kernel call against the bound
// contract. On a boundable layer the kernel's level-0 total is price's
// Levels[0].Total bit for bit, and when it exceeds the bound the kernel
// returns it, a number in (bound, exact]. Otherwise the kernel returns
// the exact energy. It reports whether the call was pruned.
func kernelCallErr(boundable bool, c core.KernelCall) (pruned bool, err error) {
	if !boundable {
		if math.Float64bits(c.Got) != math.Float64bits(c.Exact) {
			return false, fmt.Errorf("not boundable, at bound %v: got %v, exact %v", c.Bound, c.Got, c.Exact)
		}
		return false, nil
	}
	if math.Float64bits(c.Level0) != math.Float64bits(c.Level0Total) {
		return false, fmt.Errorf("level-0 total %v, price's Levels[0].Total %v", c.Level0, c.Level0Total)
	}
	if c.Level0 > c.Bound {
		if math.Float64bits(c.Got) != math.Float64bits(c.Level0) || !(c.Bound < c.Got && c.Got <= c.Exact) {
			return true, fmt.Errorf("pruned at bound %v: got %v, want level-0 total %v in (bound, %v]", c.Bound, c.Got, c.Level0, c.Exact)
		}
		return true, nil
	}
	if math.Float64bits(c.Got) != math.Float64bits(c.Exact) {
		return false, fmt.Errorf("unpruned at bound %v: got %v, exact %v", c.Bound, c.Got, c.Exact)
	}
	return false, nil
}

// checkKernelCall is kernelCallErr for a probe on the test's goroutine.
func checkKernelCall(t *testing.T, what string, boundable bool, c core.KernelCall) bool {
	t.Helper()
	pruned, err := kernelCallErr(boundable, c)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return pruned
}

// boundCase is an architecture a bound test searches, with the layers
// and seeds it searches it at.
type boundCase struct {
	name   string
	arch   *core.Arch
	layers []workload.Layer
	seeds  []int64
}

// boundCases returns every built-in macro at every ResNet18 layer and
// seeds 1-3, and inside each Fig. 15 system scenario (DRAM at level 0)
// at the first layers and seed 1; fewer under -short and -race.
func boundCases(t *testing.T) []boundCase {
	t.Helper()
	layers := workload.ResNet18().Layers
	seeds := []int64{1, 2, 3}
	if testing.Short() || raceEnabled {
		layers, seeds = layers[:4], seeds[:1]
	}
	var cases []boundCase
	for _, name := range builtinMacros {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, boundCase{name, arch, layers, seeds})
		for _, sc := range []system.Scenario{system.AllDRAM, system.WeightStationary, system.OnChipIO} {
			sys, err := system.Build(arch, sc, system.Config{Macros: 1})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, boundCase{sys.Name, sys, layers[:3], seeds[:1]})
		}
	}
	return cases
}

// TestCostBoundExact is the exactness check of the search's
// branch-and-bound: on every boundCase, at budgets 16 and 256, every
// candidate's kernel call keeps the bound contract (checkKernelCall),
// and the winner, its Result and the evaluated count are those of the
// same search with every candidate priced in full.
func TestCostBoundExact(t *testing.T) {
	ctx := context.Background()
	for _, bc := range boundCases(t) {
		eng, err := core.NewEngine(bc.arch)
		if err != nil {
			t.Fatal(err)
		}
		pruned, calls := map[int]int{}, map[int]int{}
		for _, l := range bc.layers {
			lctx, err := eng.PrepareLayer(l)
			if err != nil {
				t.Fatal(err)
			}
			boundable := eng.Boundable(lctx)
			for _, budget := range []int{16, 256} {
				for _, seed := range bc.seeds {
					so := core.SearchOptions{MaxMappings: budget, Seed: seed}
					what := bc.name + " " + l.Name
					got, gotN, err := eng.SearchProbed(ctx, lctx, so, false, func(c core.KernelCall) {
						calls[budget]++
						if checkKernelCall(t, what, boundable, c) {
							pruned[budget]++
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					want, wantN, err := eng.SearchProbed(ctx, lctx, so, true, func(c core.KernelCall) {
						checkKernelCall(t, what, boundable, c)
					})
					if err != nil {
						t.Fatal(err)
					}
					if gotN != wantN || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s budget %d seed %d: bounded search found %s (%v, %d evaluated), full pricing %s (%v, %d evaluated)",
							what, budget, seed, got.Mapping, got.Energy, gotN, want.Mapping, want.Energy, wantN)
					}
				}
			}
		}
		t.Logf("%s: %d of %d candidates pruned at budget 16, %d of %d at 256", bc.name, pruned[16], calls[16], pruned[256], calls[256])
	}
}

// TestCostBoundDRAMBelowLevel0 checks the runtime precondition: with a
// DRAM level below level 0 (a system scenario's DRAM and global buffer
// swapped), level 0's leakage depends on that level's traffic, which a
// level-0 total does not see (it differs from price's Levels[0].Total),
// so the layer is not boundable and every candidate is priced in full,
// with the winner of a full-pricing search.
func TestCostBoundDRAMBelowLevel0(t *testing.T) {
	arch, err := macros.ByName("base")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.Build(arch, system.WeightStationary, system.Config{Macros: 1})
	if err != nil {
		t.Fatal(err)
	}
	swapped := *sys
	swapped.Levels = append([]spec.Level(nil), sys.Levels...)
	swapped.Levels[0], swapped.Levels[1] = swapped.Levels[1], swapped.Levels[0]
	eng, err := core.NewEngine(&swapped)
	if err != nil {
		t.Fatal(err)
	}
	lctx, err := eng.PrepareLayer(workload.ResNet18().Layers[5])
	if err != nil {
		t.Fatal(err)
	}
	if eng.Boundable(lctx) {
		t.Fatal("DRAM below level 0: still boundable")
	}
	so := core.SearchOptions{MaxMappings: 256, Seed: 1}
	above, differs := 0, 0
	got, gotN, err := eng.SearchProbed(context.Background(), lctx, so, false, func(c core.KernelCall) {
		if c.Level0 > c.Bound {
			above++
		}
		if c.Level0 != c.Level0Total {
			differs++
		}
		checkKernelCall(t, "swapped", false, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	want, wantN, err := eng.SearchProbed(context.Background(), lctx, so, true, func(core.KernelCall) {})
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || !reflect.DeepEqual(got, want) {
		t.Fatalf("found %s (%v), full pricing %s (%v)", got.Mapping, got.Energy, want.Mapping, want.Energy)
	}
	if above == 0 || differs == 0 {
		t.Fatalf("%d candidates' level 0 exceeded the bound and %d level-0 totals missed the DRAM runtime, so the check shows nothing", above, differs)
	}
}

// TestCostBoundPrunes is the effectiveness check: on the base macro,
// ResNet18 layer 5, a 256-candidate search stops more than half of its
// candidates at level 0, so a precondition that broke would not turn
// pruning off unseen.
func TestCostBoundPrunes(t *testing.T) {
	arch, err := macros.ByName("base")
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
	if !eng.Boundable(lctx) {
		t.Fatal("base macro, ResNet18 layer 5: not boundable")
	}
	pruned := 0
	_, evaluated, err := eng.SearchProbed(context.Background(), lctx, core.SearchOptions{MaxMappings: 256, Seed: 1}, false, func(c core.KernelCall) {
		if checkKernelCall(t, "base", true, c) {
			pruned++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if 2*pruned <= evaluated {
		t.Fatalf("%d of %d candidates pruned, want more than half", pruned, evaluated)
	}
}

// TestCostBoundUnsafeEnergies checks the preconditions: a layer context
// with a negative or NaN per-action energy below level 0 (where it does
// not change level 0's total) is not boundable, and its kernel prices
// every candidate in full even under a bound of -Inf, which every
// level-0 total exceeds.
func TestCostBoundUnsafeEnergies(t *testing.T) {
	arch, err := macros.ByName("base")
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
	cands, err := mapper.Sample(arch.Levels, lctx.Sliced, arch.MapperOptions(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1e-12, math.NaN()} {
		d := lctx.Export()
		level := -1
		for i := len(d.Energies) - 1; i > 0 && level < 0; i-- {
			if ae, ok := d.Energies[i][tensor.Weight]; ok {
				ae.Write = bad
				d.Energies[i][tensor.Weight] = ae
				level = i
			}
		}
		if level < 0 {
			t.Fatal("no level below 0 has weight energies")
		}
		unsafe, err := adoptCopy(d)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Boundable(unsafe) {
			t.Fatalf("weight write energy %v at level %d: still boundable", bad, level)
		}
		kernel, err := eng.CostKernel(unsafe)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cands {
			got, err := kernel(m, math.Inf(-1))
			if err != nil {
				t.Fatal(err)
			}
			r, err := eng.EvaluateMapping(unsafe, m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(r.Energy) {
				t.Fatalf("weight write energy %v, %s: kernel %v under bound -Inf, EvaluateMapping %v", bad, m, got, r.Energy)
			}
		}
	}
}

// TestCostBoundParallelPool checks the pool path: every worker bounds by
// its own best, every call keeps the contract, some are pruned, and the
// result is the serial search's, on every built-in macro at several
// widths. CI runs it repeatedly under the race detector.
func TestCostBoundParallelPool(t *testing.T) {
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
		boundable := eng.Boundable(lctx)
		want, wantN, err := eng.SearchLayerOptsCtx(ctx, lctx, core.SearchOptions{MaxMappings: 256, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			var mu sync.Mutex
			var firstErr error
			pruned := 0
			got, gotN, err := eng.SearchProbed(ctx, lctx, core.SearchOptions{MaxMappings: 256, Seed: 2, SearchWorkers: workers}, false, func(c core.KernelCall) {
				p, err := kernelCallErr(boundable, c)
				mu.Lock()
				defer mu.Unlock()
				if p {
					pruned++
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if firstErr != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, firstErr)
			}
			if boundable && pruned == 0 {
				t.Fatalf("%s, %d workers: no candidate pruned", name, workers)
			}
			if gotN != wantN || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d workers: found %s (%v, %d evaluated), serial %s (%v, %d evaluated)",
					name, workers, got.Mapping, got.Energy, gotN, want.Mapping, want.Energy, wantN)
			}
		}
	}
}

// TestCostKernelPrunedAllocatesNothing is TestCostKernelAllocatesNothing
// for the pruned path: a kernel given a bound below every candidate's
// level-0 total stops at level 0 without allocating.
func TestCostKernelPrunedAllocatesNothing(t *testing.T) {
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
		bound := math.Inf(-1)
		for _, m := range cands { // grow the scratch
			if _, err := kernel(m, bound); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := kernel(cands[i%len(cands)], bound); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: pruned cost kernel allocates %v times per candidate, want 0", name, allocs)
		}
	}
}
