package serve

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/system"
	"repro/internal/workload"
)

// TestDefaultServerSearchesSerially checks the zero-option server answers
// bit-equal to the engine's own network evaluation: every layer searched
// serially with Seed+i, summed in layer order.
func TestDefaultServerSearchesSerially(t *testing.T) {
	arch, err := macros.ByName("base")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.EvaluateNetworkOptsCtx(context.Background(), workload.Toy(), core.SearchOptions{MaxMappings: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	got, err := srv.EvaluateCtx(context.Background(), Request{Macro: "base", Network: "toy", MaxMappings: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.EnergyJ) != math.Float64bits(want.Energy) || math.Float64bits(got.TimeSec) != math.Float64bits(want.TimeSec) ||
		got.MappingsEvaluated != want.MappingsEvaluated {
		t.Fatalf("server answered (%v J, %v s, %d evaluated), the engine (%v J, %v s, %d evaluated)",
			got.EnergyJ, got.TimeSec, got.MappingsEvaluated, want.Energy, want.TimeSec, want.MappingsEvaluated)
	}
	if want.MappingsEvaluated == 0 {
		t.Fatal("MappingsEvaluated not populated")
	}
	if n := srv.SearchStats().MappingsEvaluated; n != want.MappingsEvaluated {
		t.Fatalf("search stats count %d mappings evaluated, want %d", n, want.MappingsEvaluated)
	}
}

// TestScenariosShareSumsConcurrently: four goroutines evaluate one macro
// under its four scenarios on one server, so their layer preparations
// share the macro's operand stages and column sums, and EvaluateCtx's
// first pass skips the layers whose sums another goroutine is filling.
// Every result matches a serial run's bit for bit, and the cache counts
// the serial run's hits, misses and compiles: a skipped layer counts as
// none of them.
func TestScenariosShareSumsConcurrently(t *testing.T) {
	scenarios := []string{"", system.AllDRAM.String(), system.WeightStationary.String(), system.OnChipIO.String()}
	reqs := make([]Request, len(scenarios))
	for i, sc := range scenarios {
		reqs[i] = Request{Macro: "macro-c", Scenario: sc, Network: "resnet18", Layers: 4, MaxMappings: 4, Seed: int64(i)}
	}
	evaluate := func(srv *Server, req Request) ([]byte, error) {
		res, err := srv.EvaluateCtx(context.Background(), req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res.NetworkResult)
	}
	serial := NewServer(BatchOptions{})
	defer serial.Close()
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = evaluate(serial, req); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := serial.CacheStats()
	for round := 0; round < 3; round++ {
		srv := NewServer(BatchOptions{})
		got := make([][]byte, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = evaluate(srv, req)
			}()
		}
		wg.Wait()
		stats := srv.CacheStats()
		srv.Close()
		for i := range reqs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if string(got[i]) != string(want[i]) {
				t.Fatalf("round %d, scenario %q: concurrent result differs from the serial one:\n%s\n%s", round, scenarios[i], got[i], want[i])
			}
		}
		if stats != wantStats {
			t.Fatalf("round %d: cache stats %+v, serial run's %+v", round, stats, wantStats)
		}
	}
}
