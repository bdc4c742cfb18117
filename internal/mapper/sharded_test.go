package mapper

import (
	"context"
	"testing"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// shardedGrid runs f over a small grid of (levels, einsum) shapes so the
// sharded properties are checked on more than one mapping space.
func shardedGrid(t *testing.T, f func(t *testing.T, levels []spec.Level, e *tensor.Einsum)) {
	t.Helper()
	cases := []struct {
		name       string
		rows, cols int
		m, k, n    int
	}{
		{"exact-fit", 64, 32, 16, 64, 32},
		{"ragged", 48, 24, 10, 56, 36},
		{"tiny", 8, 8, 4, 8, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f(t, cimLevels(c.rows, c.cols), mvm(t, c.m, c.k, c.n))
		})
	}
}

// TestShardedSingleShardMatchesUnsharded pins the tentpole's anchor
// property: Shards == 1 routes through the concurrent pipeline yet
// reproduces the unsharded Sample sequence byte for byte — same
// candidates, same order, same count — across seeds and budgets.
func TestShardedSingleShardMatchesUnsharded(t *testing.T) {
	shardedGrid(t, func(t *testing.T, levels []spec.Level, e *tensor.Einsum) {
		for seed := int64(0); seed < 6; seed++ {
			for _, budget := range []int{1, 2, 7, 40} {
				opts := defaultOpts()
				opts.Seed = seed
				opts.MaxMappings = budget
				want, err := Sample(levels, e, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Shards = 1
				got, err := Sample(levels, e, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d budget %d: %d candidates sharded vs %d unsharded", seed, budget, len(got), len(want))
				}
				for i := range got {
					if got[i].String() != want[i].String() {
						t.Fatalf("seed %d budget %d candidate %d: %s vs %s", seed, budget, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestShardedSequenceDeterministicAndDistinct checks, for every shard
// count: two independent runs produce the identical global sequence (no
// scheduling dependence), the greedy mapping leads it, every candidate is
// distinct (cross-shard dedup), valid, and the budget is honored.
func TestShardedSequenceDeterministicAndDistinct(t *testing.T) {
	shardedGrid(t, func(t *testing.T, levels []spec.Level, e *tensor.Einsum) {
		greedy, err := Greedy(levels, e, defaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 8} {
			opts := defaultOpts()
			opts.MaxMappings = 48
			opts.Shards = shards
			first, err := Sample(levels, e, opts)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Sample(levels, e, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) != len(again) {
				t.Fatalf("shards %d: run lengths %d vs %d", shards, len(first), len(again))
			}
			if len(first) == 0 || first[0].String() != greedy.String() {
				t.Fatalf("shards %d: sequence does not start with the greedy mapping", shards)
			}
			if len(first) > opts.MaxMappings {
				t.Fatalf("shards %d: %d candidates exceed budget %d", shards, len(first), opts.MaxMappings)
			}
			seen := make(map[string]bool, len(first))
			for i := range first {
				k := first[i].String()
				if k != again[i].String() {
					t.Fatalf("shards %d candidate %d differs between runs: %s vs %s", shards, i, k, again[i])
				}
				if seen[k] {
					t.Fatalf("shards %d: duplicate candidate %s at index %d", shards, k, i)
				}
				seen[k] = true
				if err := mapping.Validate(levels, e, first[i]); err != nil {
					t.Fatalf("shards %d candidate %d invalid: %v", shards, i, err)
				}
			}
		}
	})
}

// TestShardedSameWinnerAcrossWorkers is the search-level determinism
// property: for a given (Seed, Shards) the (cost, index) winner and the
// evaluated count are identical whether candidates are evaluated serially
// or by any number of workers.
func TestShardedSameWinnerAcrossWorkers(t *testing.T) {
	shardedGrid(t, func(t *testing.T, levels []spec.Level, e *tensor.Einsum) {
		for _, shards := range []int{1, 2, 4, 8} {
			opts := defaultOpts()
			opts.MaxMappings = 48
			opts.Shards = shards
			want, wantN, err := serialSearch(levels, e, opts, costByString)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, gotN, err := search(t, context.Background(), levels, e, opts, workers, perWorker(costByString))
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN || got.Cost != want.Cost || got.Mapping.String() != want.Mapping.String() {
					t.Fatalf("shards %d workers %d: (%d, %g, %s) vs serial (%d, %g, %s)",
						shards, workers, gotN, got.Cost, got.Mapping, wantN, want.Cost, want.Mapping)
				}
			}
		}
	})
}

// TestShardedEarlyStop checks yield=false stops a sharded generation
// promptly and cleanly — under -race this also exercises the done-channel
// shutdown of still-producing shard goroutines.
func TestShardedEarlyStop(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	opts := defaultOpts()
	opts.MaxMappings = 64
	opts.Shards = 8
	plan, err := mapping.NewPlan(levels, e)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sampleSeq(plan, levels, e, opts, func(int, *mapping.Mapping) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("yield=false stopped after %d candidates, want 3", n)
	}
}
