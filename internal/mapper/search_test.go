package mapper

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// costByString is a deterministic cost function: a hash of the
// mapping's textual form, so distinct mappings get distinct costs and
// the search and its oracle see identical values.
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
// Scratch back to a mapping through plan and prices that.
func loaded(plan *mapping.Plan, cost mappingCost) CostFunc {
	return func(s *mapping.Scratch, _ float64) (float64, error) {
		var m mapping.Mapping
		plan.WriteLoaded(s, &m)
		return cost(&m)
	}
}

// search runs Search with a freshly compiled plan, pricing by cost.
func search(t testing.TB, ctx context.Context, levels []spec.Level, e *tensor.Einsum, opts Options, cost mappingCost) (*Result, int, error) {
	t.Helper()
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		t.Fatal(err)
	}
	return Search(ctx, plan, levels, e, opts, loaded(plan, cost))
}

// serialSearch is the oracle the search's reduction is checked against:
// the plain loop over Sample, in which a strictly lower cost wins (so the
// earlier candidate keeps ties) and the first failure's error is kept.
// It shares nothing with Search but the candidate sequence.
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

// TestSearchMatchesSerial is the equivalence property: across seeds and
// budgets the search returns the identical best mapping, cost, and
// evaluated count as the serial oracle.
func TestSearchMatchesSerial(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	for seed := int64(0); seed < 8; seed++ {
		for _, budget := range []int{1, 7, 64} {
			opts := defaultOpts()
			opts.Seed = seed
			opts.MaxMappings = budget
			want, wantN, wantErr := serialSearch(levels, e, opts, costByString)
			got, gotN, gotErr := search(t, context.Background(), levels, e, opts, costByString)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d budget %d: err %v vs %v", seed, budget, gotErr, wantErr)
			}
			if gotN != wantN {
				t.Fatalf("seed %d budget %d: evaluated %d vs %d", seed, budget, gotN, wantN)
			}
			if got.Cost != want.Cost || got.Mapping.String() != want.Mapping.String() {
				t.Fatalf("seed %d budget %d: best (%g, %s) vs (%g, %s)",
					seed, budget, got.Cost, got.Mapping, want.Cost, want.Mapping)
			}
		}
	}
}

// TestSearchBoundContract checks the bound Search gives its CostFunc
// and the use it makes of a bounded return. The first candidate gets
// +Inf and every later one the best cost so far (the serial oracle's
// running minimum). A cost function that returns the least legal value,
// the next float above the bound, for every candidate whose cost exceeds
// it leaves the winner, its cost and the evaluated count those of exact
// pricing.
func TestSearchBoundContract(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, budget := range []int{1, 16, 64} {
			opts := defaultOpts()
			opts.Seed, opts.MaxMappings = seed, budget
			cands, err := Sample(levels, e, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wantBounds []float64
			best := math.Inf(1)
			for _, m := range cands {
				wantBounds = append(wantBounds, best)
				c, _ := costByString(m)
				best = min(best, c)
			}
			want, wantN, err := serialSearch(levels, e, opts, costByString)
			if err != nil {
				t.Fatal(err)
			}
			var bounds []float64
			bounded := func(s *mapping.Scratch, bound float64) (float64, error) {
				var m mapping.Mapping
				plan.WriteLoaded(s, &m)
				c, err := costByString(&m)
				bounds = append(bounds, bound)
				if c > bound {
					return math.Nextafter(bound, math.Inf(1)), err
				}
				return c, err
			}
			got, gotN, err := Search(context.Background(), plan, levels, e, opts, bounded)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN || got.Cost != want.Cost || got.Mapping.String() != want.Mapping.String() {
				t.Fatalf("seed %d budget %d: bounded search found (%d, %g, %s), exact (%d, %g, %s)",
					seed, budget, gotN, got.Cost, got.Mapping, wantN, want.Cost, want.Mapping)
			}
			if !slices.Equal(bounds, wantBounds) {
				t.Fatalf("seed %d budget %d: bounds %v, want the running best %v", seed, budget, bounds, wantBounds)
			}
		}
	}
}

// TestSearchTieBreaksByIndex forces every candidate to the same cost and
// checks the winner is the first candidate — the serial loop's
// strict-less-than tie-breaking.
func TestSearchTieBreaksByIndex(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 32
	flat := func(*mapping.Mapping) (float64, error) { return 42, nil }
	want, _, err := serialSearch(levels, e, opts, flat)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := search(t, context.Background(), levels, e, opts, flat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mapping.String() != want.Mapping.String() {
		t.Fatalf("tie broke to %s, serial keeps %s", got.Mapping, want.Mapping)
	}
}

// TestSearchFirstError checks the error reported when every candidate
// fails is the first candidate's, in candidate order.
func TestSearchFirstError(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 16
	failAll := func(m *mapping.Mapping) (float64, error) {
		return 0, fmt.Errorf("cost failed for %s", m)
	}
	wantRes, wantN, wantErr := serialSearch(levels, e, opts, failAll)
	if wantRes != nil || wantErr == nil {
		t.Fatalf("serial: result %v err %v, want nil result and an error", wantRes, wantErr)
	}
	got, gotN, gotErr := search(t, context.Background(), levels, e, opts, failAll)
	if got != nil {
		t.Fatalf("search returned a result %v despite every candidate failing", got)
	}
	if gotN != wantN {
		t.Fatalf("evaluated %d vs serial %d", gotN, wantN)
	}
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("first error %q, serial reports %q", gotErr, wantErr)
	}
}

// TestSearchSkipsFailingGreedy is TestSearchSkipsFailingCandidates
// against the oracle: a cost function that rejects the greedy (first)
// candidate still yields the best of the rest, and the evaluated count
// excludes the failure.
func TestSearchSkipsFailingGreedy(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 24
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
	got, gotN, err := search(t, context.Background(), levels, e, opts, failGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || got.Mapping.String() != want.Mapping.String() {
		t.Fatalf("search (%d, %s) vs serial (%d, %s)", gotN, got.Mapping, wantN, want.Mapping)
	}
}

// TestSearchCancelledBeforeStart checks an already-cancelled context
// evaluates nothing and returns ctx.Err().
func TestSearchCancelledBeforeStart(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 32
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	res, evaluated, err := search(t, ctx, levels, e, opts, func(m *mapping.Mapping) (float64, error) {
		calls++
		return costByString(m)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil || evaluated != 0 || calls != 0 {
		t.Fatalf("res %v evaluated %d calls %d after pre-cancellation", res, evaluated, calls)
	}
}

// TestSearchCancelMidSearch cancels while the search is mid-flight: the
// first evaluation triggers cancellation, and the search must stop,
// return ctx.Err() and report exactly the one candidate it priced.
func TestSearchCancelMidSearch(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	res, evaluated, err := search(t, ctx, levels, e, opts, func(m *mapping.Mapping) (float64, error) {
		calls++
		cancel()
		return costByString(m)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled search returned a result %v", res)
	}
	if evaluated != 1 || calls != 1 {
		t.Fatalf("search priced %d and reported %d candidates after cancelling in the first, want 1", calls, evaluated)
	}
}

// TestSearchConcurrentSearches runs many searches against the same
// inputs and one shared plan concurrently (the serve pool's shape) and
// checks every one agrees with the serial oracle. Meaningful chiefly
// under -race.
func TestSearchConcurrentSearches(t *testing.T) {
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
			got, gotN, err := Search(context.Background(), plan, levels, e, opts, loaded(plan, costByString))
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
