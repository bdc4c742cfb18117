package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/system"
)

// TestTokenBudget exercises the semaphore's non-blocking contract.
func TestTokenBudget(t *testing.T) {
	b := newTokenBudget(4)
	if b.capacity() != 4 || b.available() != 4 {
		t.Fatalf("fresh budget: capacity %d available %d", b.capacity(), b.available())
	}
	if got := b.tryAcquire(3); got != 3 {
		t.Fatalf("tryAcquire(3) = %d", got)
	}
	if got := b.tryAcquire(3); got != 1 {
		t.Fatalf("tryAcquire(3) on a budget of 1 = %d, want 1", got)
	}
	if got := b.tryAcquire(1); got != 0 {
		t.Fatalf("tryAcquire on an empty budget = %d, want 0", got)
	}
	b.release(4)
	if b.available() != 4 {
		t.Fatalf("available after release = %d, want 4", b.available())
	}
	// Zero/negative capacities clamp to 1 so a misconfigured server still
	// serves.
	if newTokenBudget(0).capacity() != 1 {
		t.Fatal("zero capacity not clamped")
	}
}

// TestTokenBudgetConcurrent hammers the budget from many goroutines and
// checks conservation: tokens never exceed capacity. Meaningful chiefly
// under -race.
func TestTokenBudgetConcurrent(t *testing.T) {
	b := newTokenBudget(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := b.tryAcquire(3)
				b.release(got)
			}
		}()
	}
	wg.Wait()
	if b.available() != 8 {
		t.Fatalf("tokens leaked: available %d of 8", b.available())
	}
}

// TestEvaluateParallelMatchesSerial checks a request answered with
// intra-request fan-out carries the identical metrics as the serial
// answer, including the evaluated-mapping count.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	serial := NewServer(BatchOptions{})
	parallel := NewServer(BatchOptions{SearchWorkers: 8})
	req := Request{Macro: "base", Network: "toy", MaxMappings: 24, Seed: 3}
	want, err := serial.EvaluateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.EvaluateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.EnergyJ != want.EnergyJ || got.GOPS != want.GOPS || got.TOPSPerW != want.TOPSPerW ||
		got.MappingsEvaluated != want.MappingsEvaluated {
		t.Fatalf("parallel result diverged:\n  parallel %+v\n  serial   %+v", got, want)
	}
	if want.MappingsEvaluated == 0 {
		t.Fatal("MappingsEvaluated not populated")
	}
	// Per-request override on a serial server: same answer again.
	req.SearchWorkers = 4
	over, err := serial.EvaluateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if over.EnergyJ != want.EnergyJ || over.MappingsEvaluated != want.MappingsEvaluated {
		t.Fatalf("per-request override diverged: %+v vs %+v", over, want)
	}
}

// TestDefaultServerSearchesSerially checks the zero-option server reports
// a serial default width and answers bit-equal to an explicitly serial
// (SearchWorkers < 0) server, leaving its budget whole afterwards.
func TestDefaultServerSearchesSerially(t *testing.T) {
	def := NewServer(BatchOptions{})
	serial := NewServer(BatchOptions{SearchWorkers: -1})
	if got := def.SearchStats().SearchWorkers; got != 1 {
		t.Fatalf("zero-value server reports SearchWorkers %d, want 1", got)
	}
	req := Request{Macro: "base", Network: "toy", MaxMappings: 16, Seed: 5}
	want, err := serial.EvaluateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := def.EvaluateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.EnergyJ) != math.Float64bits(want.EnergyJ) || got.MappingsEvaluated != want.MappingsEvaluated {
		t.Fatalf("default server diverged: %+v vs %+v", got, want)
	}
	if st := def.SearchStats(); st.Available != st.Capacity {
		t.Fatalf("budget leaked: %d of %d", st.Available, st.Capacity)
	}
}

// TestBudgetCapacityCoversSearchWorkers checks the budget is sized for
// the bigger of the pool width and the search fan-out.
func TestBudgetCapacityCoversSearchWorkers(t *testing.T) {
	s := NewServer(BatchOptions{Workers: 2, SearchWorkers: 8})
	if got := s.SearchStats().Capacity; got != 8 {
		t.Fatalf("budget capacity %d, want 8", got)
	}
	s = NewServer(BatchOptions{Workers: 8, SearchWorkers: 2})
	if got := s.SearchStats().Capacity; got != 8 {
		t.Fatalf("budget capacity %d, want 8", got)
	}
	st := s.SearchStats()
	if st.Available != 8 || st.SearchWorkers != 2 {
		t.Fatalf("idle stats %+v", st)
	}
}

// TestSweepRestoresBudget runs a parallel-search sweep and checks every
// token is returned afterwards — the pool and the fan-out borrow and give
// back the same global budget.
func TestSweepRestoresBudget(t *testing.T) {
	s := NewServer(BatchOptions{Workers: 2, SearchWorkers: 4})
	reqs := Grid([]string{"base", "macro-b"}, []string{"toy"}, nil, 1, 6)
	results, err := s.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatal(r.Err)
		}
	}
	st := s.SearchStats()
	if st.Available != st.Capacity {
		t.Fatalf("budget leaked: %d of %d available after sweep", st.Available, st.Capacity)
	}
}

// TestSweepParallelSearchMatchesSerial checks sweep results are identical
// whether intra-request search parallelism is on or off, at any pool
// width — the end-to-end determinism contract.
func TestSweepParallelSearchMatchesSerial(t *testing.T) {
	reqs := Grid([]string{"base", "macro-b"}, []string{"toy"}, nil, 2, 8)
	serial := NewServer(BatchOptions{Workers: 1})
	want, err := serial.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewServer(BatchOptions{Workers: 2, SearchWorkers: 8})
	got, err := parallel.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].EnergyJ != want[i].EnergyJ || got[i].MappingsEvaluated != want[i].MappingsEvaluated {
			t.Fatalf("request %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestEvaluateSearchWorkersCancelled checks cancellation still reaches a
// parallel in-request search through the ctx seam.
func TestEvaluateSearchWorkersCancelled(t *testing.T) {
	s := NewServer(BatchOptions{SearchWorkers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.EvaluateCtx(ctx, Request{Macro: "base", Network: "toy", MaxMappings: 16})
	if err == nil {
		t.Fatal("cancelled parallel evaluation returned nil error")
	}
}

// TestHTTPSearchWorkersField checks the JSON API accepts search_workers
// and reports the budget under /healthz.
func TestHTTPSearchWorkersField(t *testing.T) {
	s := NewServer(BatchOptions{Workers: 2, SearchWorkers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"macro": "base", "network": "toy", "max_mappings": 8, "search_workers": 4}`
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ <= 0 || res.MappingsEvaluated <= 0 {
		t.Fatalf("implausible result %+v", res)
	}

	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var h struct {
		Search BudgetStats `json:"search"`
	}
	if err := json.NewDecoder(health.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Search.Capacity != 4 || h.Search.SearchWorkers != 4 {
		t.Fatalf("healthz search stats %+v", h.Search)
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
