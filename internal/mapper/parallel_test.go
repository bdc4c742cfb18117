package mapper

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mapping"
)

// costByString is a deterministic, concurrency-safe cost function: a hash
// of the mapping's textual form, so distinct mappings get distinct costs
// and both search paths see identical values.
func costByString(m *mapping.Mapping) (float64, error) {
	var h uint64 = 1469598103934665603
	for _, c := range []byte(m.String()) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return float64(h % 100003), nil
}

// TestSearchParallelMatchesSerial is the equivalence property: across
// seeds, budgets, and worker counts the parallel search returns the
// identical best mapping, cost, and evaluated count as the serial search.
// perWorker hands every worker the same cost function.
func perWorker(cost CostFunc) func() CostFunc {
	return func() CostFunc { return cost }
}

func TestSearchParallelMatchesSerial(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	for seed := int64(0); seed < 8; seed++ {
		for _, budget := range []int{1, 7, 64} {
			for _, workers := range []int{2, 3, 8, 64} {
				opts := defaultOpts()
				opts.Seed = seed
				opts.MaxMappings = budget
				want, wantN, wantErr := Search(levels, e, opts, costByString)
				got, gotN, gotErr := SearchParallel(levels, e, opts, workers, perWorker(costByString))
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d budget %d workers %d: err %v vs %v", seed, budget, workers, gotErr, wantErr)
				}
				if gotN != wantN {
					t.Fatalf("seed %d budget %d workers %d: evaluated %d vs %d", seed, budget, workers, gotN, wantN)
				}
				if got.Cost != want.Cost || got.Mapping.String() != want.Mapping.String() {
					t.Fatalf("seed %d budget %d workers %d: best (%g, %s) vs (%g, %s)",
						seed, budget, workers, got.Cost, got.Mapping, want.Cost, want.Mapping)
				}
			}
		}
	}
}

// TestSearchParallelTieBreaksByIndex forces every candidate to the same
// cost and checks the winner is the first candidate — the serial loop's
// strict-less-than tie-breaking.
func TestSearchParallelTieBreaksByIndex(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 32
	flat := func(*mapping.Mapping) (float64, error) { return 42, nil }
	want, _, err := Search(levels, e, opts, flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, _, err := SearchParallel(levels, e, opts, workers, perWorker(flat))
		if err != nil {
			t.Fatal(err)
		}
		if got.Mapping.String() != want.Mapping.String() {
			t.Fatalf("workers %d: tie broke to %s, serial keeps %s", workers, got.Mapping, want.Mapping)
		}
	}
}

// TestSearchParallelFirstError checks the error reported when every
// candidate fails is the first candidate's, matching serial order even
// though workers finish out of order.
func TestSearchParallelFirstError(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 16
	var idx atomic.Int64
	failAll := func(m *mapping.Mapping) (float64, error) {
		idx.Add(1)
		return 0, fmt.Errorf("cost failed for %s", m)
	}
	wantRes, wantN, wantErr := Search(levels, e, opts, failAll)
	if wantRes != nil || wantErr == nil {
		t.Fatalf("serial: result %v err %v, want nil result and an error", wantRes, wantErr)
	}
	got, gotN, gotErr := SearchParallel(levels, e, opts, 8, perWorker(failAll))
	if got != nil {
		t.Fatalf("parallel returned a result %v despite every candidate failing", got)
	}
	if gotN != wantN {
		t.Fatalf("evaluated %d vs serial %d", gotN, wantN)
	}
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("first error %q, serial reports %q", gotErr, wantErr)
	}
}

// TestSearchParallelSkipsFailingCandidates mirrors the serial test: a cost
// function that rejects the greedy (first) candidate still yields the best
// of the rest, and the evaluated count excludes the failure.
func TestSearchParallelSkipsFailingCandidates(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 24
	// Fail exactly the greedy mapping by value, so the rejected candidate
	// is the same regardless of evaluation order.
	greedy, err := Greedy(levels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	failGreedy := func(m *mapping.Mapping) (float64, error) {
		if m.String() == greedy.String() {
			return 0, errors.New("rejected")
		}
		return costByString(m)
	}
	want, wantN, err := Search(levels, e, opts, failGreedy)
	if err != nil {
		t.Fatal(err)
	}
	got, gotN, err := SearchParallel(levels, e, opts, 8, perWorker(failGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || got.Mapping.String() != want.Mapping.String() {
		t.Fatalf("parallel (%d, %s) vs serial (%d, %s)", gotN, got.Mapping, wantN, want.Mapping)
	}
}

// TestSearchParallelCancelledBeforeStart checks an already-cancelled
// context evaluates nothing and returns ctx.Err(), like the serial path.
func TestSearchParallelCancelledBeforeStart(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 32
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	res, evaluated, err := SearchParallelCtx(ctx, levels, e, opts, 8, perWorker(func(m *mapping.Mapping) (float64, error) {
		calls.Add(1)
		return costByString(m)
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil || evaluated != 0 || calls.Load() != 0 {
		t.Fatalf("res %v evaluated %d calls %d after pre-cancellation", res, evaluated, calls.Load())
	}
}

// TestSearchParallelCancelMidFanOut cancels while the pool is mid-flight:
// the first evaluation triggers cancellation, and the search must drain
// promptly, return ctx.Err(), and evaluate well under the full budget.
// Run under -race this also exercises the worker/feeder shutdown path.
func TestSearchParallelCancelMidFanOut(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	res, evaluated, err := SearchParallelCtx(ctx, levels, e, opts, 4, perWorker(func(m *mapping.Mapping) (float64, error) {
		n := calls.Add(1)
		if n == 1 {
			cancel()
			once.Do(func() { close(gate) })
		} else {
			// Later workers block until cancellation is visible, so the
			// run deterministically stops early.
			<-gate
		}
		return costByString(m)
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled search returned a result %v", res)
	}
	if evaluated >= opts.MaxMappings/2 {
		t.Fatalf("evaluated %d of %d candidates despite mid-fan-out cancellation", evaluated, opts.MaxMappings)
	}
}

// TestSearchParallelConcurrentSearches runs many parallel searches against
// the same inputs concurrently (the serve pool's shape) and checks every
// one agrees with the serial answer. Meaningful chiefly under -race.
func TestSearchParallelConcurrentSearches(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 32
	want, wantN, err := Search(levels, e, opts, costByString)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, gotN, err := SearchParallel(levels, e, opts, 4, perWorker(costByString))
			if err != nil {
				errs <- err
				return
			}
			if gotN != wantN || got.Cost != want.Cost || got.Mapping.String() != want.Mapping.String() {
				errs <- fmt.Errorf("diverged: (%d, %g, %s) vs (%d, %g, %s)",
					gotN, got.Cost, got.Mapping, wantN, want.Cost, want.Mapping)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSearchParallelSingleWorkerFallsBack checks workers <= 1 takes the
// serial path byte for byte.
func TestSearchParallelSingleWorkerFallsBack(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 16
	want, wantN, err := Search(levels, e, opts, costByString)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, -3} {
		got, gotN, err := SearchParallel(levels, e, opts, workers, perWorker(costByString))
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || got.Mapping.String() != want.Mapping.String() {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

// TestSampleSeqMatchesSample pins the streaming generator to the batch
// Sample: same mappings, same order, contiguous indices.
func TestSampleSeqMatchesSample(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	for seed := int64(0); seed < 4; seed++ {
		opts := defaultOpts()
		opts.Seed = seed
		opts.MaxMappings = 40
		want, err := Sample(levels, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		err = sampleSeq(levels, e, opts, func(i int, m *mapping.Mapping) bool {
			if i != len(got) {
				t.Fatalf("index %d out of order (have %d)", i, len(got))
			}
			got = append(got, m.String())
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d candidates vs Sample's %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].String() {
				t.Fatalf("seed %d candidate %d: %s vs %s", seed, i, got[i], want[i])
			}
		}
		// Early stop is honored.
		n := 0
		if err := sampleSeq(levels, e, opts, func(int, *mapping.Mapping) bool { n++; return n < 3 }); err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("yield=false stopped after %d candidates, want 3", n)
		}
	}
}
