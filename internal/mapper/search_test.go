package mapper

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
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

// mappingCost prices a mapping. The search tests price with one, so that
// the serial oracle, which prices Sample's mappings, and Search, which
// prices the Scratch each candidate is loaded in, see the same values.
type mappingCost func(*mapping.Mapping) (float64, error)

// loaded is cost as a CostFunc: it writes the candidate loaded in the
// Scratch back to a mapping through plan and prices that. It is safe for
// concurrent use when cost is.
func loaded(plan *mapping.Plan, cost mappingCost) CostFunc {
	return func(s *mapping.Scratch) (float64, error) {
		var m mapping.Mapping
		plan.WriteLoaded(s, &m)
		return cost(&m)
	}
}

// search runs Search with a freshly compiled plan, pricing by cost.
func search(t testing.TB, ctx context.Context, levels []spec.Level, e *tensor.Einsum, opts Options, workers int, cost mappingCost) (*Result, int, error) {
	t.Helper()
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		t.Fatal(err)
	}
	return Search(ctx, plan, levels, e, opts, workers, loaded(plan, cost))
}

// serialSearch is the oracle the search's reduction is checked against:
// the plain serial loop over Sample, in which a strictly lower cost wins
// (so the earlier candidate keeps ties) and the first failure's error is
// kept. It shares nothing with Search but the candidate sequence.
func serialSearch(levels []spec.Level, e *tensor.Einsum, opts Options, cost mappingCost) (*Result, int, error) {
	cands, err := Sample(levels, e, opts)
	if err != nil {
		return nil, 0, err
	}
	var best *Result
	var firstErr error
	evaluated := 0
	for _, m := range cands {
		c, err := cost(m)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		evaluated++
		if best == nil || c < best.Cost {
			best = &Result{Mapping: m, Cost: c}
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, 0, firstErr
		}
		return nil, 0, errors.New("mapper: no valid mapping found")
	}
	return best, evaluated, nil
}

// TestSearchParallelMatchesSerial is the equivalence property: across
// seeds, budgets, and worker counts the search returns the identical best
// mapping, cost, and evaluated count as the serial oracle.
func TestSearchParallelMatchesSerial(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	for seed := int64(0); seed < 8; seed++ {
		for _, budget := range []int{1, 7, 64} {
			for _, workers := range []int{1, 2, 3, 8, 64} {
				opts := defaultOpts()
				opts.Seed = seed
				opts.MaxMappings = budget
				want, wantN, wantErr := serialSearch(levels, e, opts, costByString)
				got, gotN, gotErr := search(t, context.Background(), levels, e, opts, workers, costByString)
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
	want, _, err := serialSearch(levels, e, opts, flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, _, err := search(t, context.Background(), levels, e, opts, workers, flat)
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
	wantRes, wantN, wantErr := serialSearch(levels, e, opts, failAll)
	if wantRes != nil || wantErr == nil {
		t.Fatalf("serial: result %v err %v, want nil result and an error", wantRes, wantErr)
	}
	got, gotN, gotErr := search(t, context.Background(), levels, e, opts, 8, failAll)
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
	want, wantN, err := serialSearch(levels, e, opts, failGreedy)
	if err != nil {
		t.Fatal(err)
	}
	got, gotN, err := search(t, context.Background(), levels, e, opts, 8, failGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || got.Mapping.String() != want.Mapping.String() {
		t.Fatalf("parallel (%d, %s) vs serial (%d, %s)", gotN, got.Mapping, wantN, want.Mapping)
	}
}

// TestSearchParallelCancelledBeforeStart checks an already-cancelled
// context evaluates nothing and returns ctx.Err(), inline (one worker) and
// in the pool.
func TestSearchParallelCancelledBeforeStart(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 32
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		res, evaluated, err := search(t, ctx, levels, e, opts, workers, func(m *mapping.Mapping) (float64, error) {
			calls.Add(1)
			return costByString(m)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil || evaluated != 0 || calls.Load() != 0 {
			t.Fatalf("workers %d: res %v evaluated %d calls %d after pre-cancellation", workers, res, evaluated, calls.Load())
		}
	}
}

// TestSearchParallelCancelMidFanOut cancels while the search is
// mid-flight: the first evaluation triggers cancellation, and the search
// must drain promptly, return ctx.Err(), and evaluate well under the full
// budget. Inline (one worker) the count is exact: only the first
// candidate was priced. Run under -race this also exercises the
// worker/feeder shutdown path.
func TestSearchParallelCancelMidFanOut(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 64
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		gate := make(chan struct{})
		var once sync.Once
		res, evaluated, err := search(t, ctx, levels, e, opts, workers, func(m *mapping.Mapping) (float64, error) {
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
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers %d: cancelled search returned a result %v", workers, res)
		}
		if evaluated >= opts.MaxMappings/2 {
			t.Fatalf("workers %d: evaluated %d of %d candidates despite mid-fan-out cancellation", workers, evaluated, opts.MaxMappings)
		}
		if workers == 1 && evaluated != 1 {
			t.Fatalf("inline search evaluated %d candidates after cancelling in the first, want 1", evaluated)
		}
	}
}

// TestSearchParallelConcurrentSearches runs many parallel searches against
// the same inputs and one shared plan concurrently (the serve pool's
// shape) and checks every one agrees with the serial oracle. Meaningful
// chiefly under -race.
func TestSearchParallelConcurrentSearches(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 32
	want, wantN, err := serialSearch(levels, e, opts, costByString)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, gotN, err := Search(context.Background(), plan, levels, e, opts, 4, loaded(plan, costByString))
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

// TestSearchParallelSingleWorkerFallsBack checks every workers <= 1 runs
// the inline search and matches the serial oracle byte for byte.
func TestSearchParallelSingleWorkerFallsBack(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 16
	want, wantN, err := serialSearch(levels, e, opts, costByString)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, -3} {
		got, gotN, err := search(t, context.Background(), levels, e, opts, workers, costByString)
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
		plan, err := mapping.NewPlan(levels, e)
		if err != nil {
			t.Fatal(err)
		}
		st := getState()
		err = st.sampleSeq(plan, levels, e, opts, false, func(i int) bool {
			if i != len(got) {
				t.Fatalf("index %d out of order (have %d)", i, len(got))
			}
			got = append(got, st.smp.named().String())
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
		err = st.sampleSeq(plan, levels, e, opts, false, func(int) bool { n++; return n < 3 })
		st.release()
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("yield=false stopped after %d candidates, want 3", n)
		}
	}
}
