package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// searchOutcome is everything a search returns.
type searchOutcome struct {
	Result    any
	Evaluated int
	Err       error
}

// TestSearchStateReuseMatchesFresh checks that the pooled search memory
// (sampler tables, dedup set, rand source, Scratch, best buffer) carries
// nothing from one search into the next. On every built-in macro and on
// layers with different dim counts (a ResNet18 conv, a transformer
// matmul, toy's fc), it runs searches at budgets 1, 16 and 256, a search
// cancelled mid-stream, a search whose every candidate fails and a
// Sample (the whole candidate sequence), each alone first and then
// interleaved from 4 goroutines in shuffled orders, and requires every
// interleaved outcome to equal its lone run.
func TestSearchStateReuseMatchesFresh(t *testing.T) {
	transformer, err := workload.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	layers := []workload.Layer{workload.ResNet18().Layers[5], transformer.Layers[0], workload.Toy().Layers[1]}
	type job struct {
		name    string
		wantErr bool
		run     func() searchOutcome
	}
	var jobs []job
	for _, name := range builtinMacros {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layers {
			lctx, err := eng.PrepareLayer(l)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{1, 16, 256} {
				so := core.SearchOptions{MaxMappings: budget, Seed: int64(budget)}
				jobs = append(jobs, job{fmt.Sprintf("%s/%s/budget %d", name, l.Name, budget), false, func() searchOutcome {
					r, n, err := eng.SearchLayerOptsCtx(context.Background(), lctx, so)
					return searchOutcome{r, n, err}
				}})
			}
			jobs = append(jobs, job{fmt.Sprintf("%s/%s/cancelled", name, l.Name), true, func() searchOutcome {
				ctx := &countdownCtx{Context: context.Background(), left: 5}
				r, n, err := eng.SearchLayerOptsCtx(ctx, lctx, core.SearchOptions{MaxMappings: 256, Seed: 2})
				return searchOutcome{r, n, err}
			}})
			jobs = append(jobs, job{fmt.Sprintf("%s/%s/sample", name, l.Name), false, func() searchOutcome {
				ms, err := mapper.Sample(arch.Levels, lctx.Sliced, arch.MapperOptions(64, 4))
				return searchOutcome{ms, len(ms), err}
			}})
			plan, err := mapping.NewPlan(arch.Levels, lctx.Sliced)
			if err != nil {
				t.Fatal(err)
			}
			reject := func(s *mapping.Scratch) (float64, error) {
				var m mapping.Mapping
				plan.WriteLoaded(s, &m)
				return 0, fmt.Errorf("rejected %s", &m)
			}
			jobs = append(jobs, job{fmt.Sprintf("%s/%s/all fail", name, l.Name), true, func() searchOutcome {
				r, n, err := mapper.Search(context.Background(), plan, arch.Levels, lctx.Sliced, arch.MapperOptions(16, 3), 1, reject)
				return searchOutcome{r, n, err}
			}})
		}
	}

	want := make([]searchOutcome, len(jobs))
	for i, j := range jobs {
		want[i] = j.run()
		if (want[i].Err != nil) != j.wantErr {
			t.Fatalf("%s alone: error %v", j.name, want[i].Err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				if got := jobs[i].run(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, %s: interleaved search returned %+v, alone %+v", g, jobs[i].name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
