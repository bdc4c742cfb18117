package mapper

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// cimLevels models a simple CiM macro: buffer -> columns mesh -> rows mesh
// -> cells, as the mapper will see it from macros.
func cimLevels(rows, cols int) []spec.Level {
	return []spec.Level{
		{Name: "buffer", Kind: spec.StorageLevel,
			Keeps: map[tensor.Kind]bool{tensor.Input: true, tensor.Weight: true, tensor.Output: true}},
		{Name: "columns", Kind: spec.SpatialLevel, Mesh: cols, MeshX: cols, MeshY: 1,
			SpatialReuse: map[tensor.Kind]bool{tensor.Input: true}},
		{Name: "rows", Kind: spec.SpatialLevel, Mesh: rows, MeshX: 1, MeshY: rows,
			SpatialReuse: map[tensor.Kind]bool{tensor.Output: true}},
		{Name: "cell", Kind: spec.ComputeLevel,
			Keeps: map[tensor.Kind]bool{tensor.Weight: true}},
	}
}

func mvm(t *testing.T, m, k, n int) *tensor.Einsum {
	t.Helper()
	e, err := tensor.MatMul("mvm", m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func defaultOpts() Options {
	return Options{
		SpatialPrefs: map[int][]string{1: {"K"}, 2: {"C"}},
		InnerDims:    []string{"C"},
		Seed:         1,
	}
}

func TestGreedyFillsArray(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 16, 64, 32)
	m, err := Greedy(levels, e, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	c, err := mapping.Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Utilization != 1 {
		t.Fatalf("exact-fit workload should reach full utilization, got %g (%s)", c.Utilization, m)
	}
	if c.Instances != 64*32 {
		t.Fatalf("instances = %d, want 2048", c.Instances)
	}
}

func TestGreedyPadsNonDividingDims(t *testing.T) {
	levels := cimLevels(64, 32)
	// K=27 (3x3x3 conv-ish reduction) does not divide 64.
	e := mvm(t, 10, 27, 20)
	m, err := Greedy(levels, e, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	c, err := mapping.Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	// 27 rows of 64 used, 20 cols of 32: utilization 27*20/(27*20) with
	// spatial factors 27 and 20 => full; greedy takes min(bound, mesh).
	if c.Utilization != 1 {
		t.Fatalf("utilization = %g (%s)", c.Utilization, m)
	}
}

func TestGreedySplitsOversizedDims(t *testing.T) {
	levels := cimLevels(16, 8)
	e := mvm(t, 4, 100, 30)
	m, err := Greedy(levels, e, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	c, err := mapping.Analyze(levels, e, m)
	if err != nil {
		t.Fatal(err)
	}
	// K=100 on 16 rows: spatial 16, temporal ceil(100/16)=7 -> padded 112.
	// N=30 on 8 cols: spatial 8, temporal 4 -> padded 32.
	if c.MACs != int64(4)*112*32 {
		t.Fatalf("padded MACs = %d (%s)", c.MACs, m)
	}
}

func TestGreedyRespectsFixedLoops(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 4, 64, 16)
	opts := defaultOpts()
	// Pin a weight-slice-like factor of 2 onto the columns mesh.
	opts.Fixed = map[int][]mapping.Loop{1: {{Dim: "M", Factor: 1}}}
	m, err := Greedy(levels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range m.LevelLoops[1] {
		if l.Dim == "M" && l.Factor == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fixed loop dropped: %s", m)
	}
}

func TestGreedyErrors(t *testing.T) {
	levels := cimLevels(64, 32)
	e := mvm(t, 4, 8, 8)
	opts := defaultOpts()
	// Unknown preferred dims are skipped, not errors (prefs are
	// arch-static while workloads vary).
	opts.SpatialPrefs = map[int][]string{1: {"Z"}}
	if _, err := Greedy(levels, e, opts); err != nil {
		t.Errorf("unknown preferred dim should be skipped: %v", err)
	}
	opts = defaultOpts()
	opts.Fixed = map[int][]mapping.Loop{1: {{Dim: "Z", Factor: 2}}}
	if _, err := Greedy(levels, e, opts); err == nil {
		t.Error("want error for unknown fixed dim")
	}
	opts = defaultOpts()
	opts.Fixed = map[int][]mapping.Loop{1: {{Dim: "K", Factor: 0}}}
	if _, err := Greedy(levels, e, opts); err == nil {
		t.Error("want error for zero fixed factor")
	}
	opts = defaultOpts()
	opts.TemporalLevel = 2 // a spatial level
	if _, err := Greedy(levels, e, opts); err == nil {
		t.Error("want error for non-storage temporal level")
	}
	noStorage := []spec.Level{
		{Name: "cell", Kind: spec.ComputeLevel, Keeps: map[tensor.Kind]bool{tensor.Weight: true}},
	}
	if _, err := Greedy(noStorage, e, Options{}); err == nil {
		t.Error("want error when no storage level exists")
	}
}

// TestSampleGeneratesDistinctValidMappings also samples a mapping space
// smaller than the budget, where most draws repeat an earlier candidate
// and the dedup set, its key arena grown many times over, rejects them,
// and a budget above maxPooledKeys, whose search gives its dedup set up
// when it releases its state.
func TestSampleGeneratesDistinctValidMappings(t *testing.T) {
	for _, c := range []struct {
		levels []spec.Level
		e      *tensor.Einsum
		budget int
	}{
		{cimLevels(32, 16), mvm(t, 8, 32, 16), 2 * maxPooledKeys},
		{cimLevels(4, 4), mvm(t, 4, 8, 6), 2000},
		{cimLevels(32, 16), mvm(t, 8, 32, 16), 50},
	} {
		opts := defaultOpts()
		opts.MaxMappings = c.budget
		ms, err := Sample(c.levels, c.e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) < 10 {
			t.Fatalf("expected a healthy candidate pool, got %d", len(ms))
		}
		seen := map[string]bool{}
		for _, m := range ms {
			if err := mapping.Validate(c.levels, c.e, m); err != nil {
				t.Fatalf("invalid sampled mapping %s: %v", m, err)
			}
			if seen[m.String()] {
				t.Fatalf("budget %d: duplicate mapping %s", c.budget, m)
			}
			seen[m.String()] = true
		}
	}
}

func TestSampleDeterministicBySeed(t *testing.T) {
	levels := cimLevels(32, 16)
	e := mvm(t, 8, 32, 16)
	opts := defaultOpts()
	opts.MaxMappings = 20
	a, err := Sample(levels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(levels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("mapping %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSearchMinimizesCost(t *testing.T) {
	levels := cimLevels(32, 16)
	e := mvm(t, 8, 32, 16)
	opts := defaultOpts()
	opts.MaxMappings = 30
	// Cost = padded MACs: rewards high utilization.
	cost := func(m *mapping.Mapping) (float64, error) {
		c, err := mapping.Analyze(levels, e, m)
		if err != nil {
			return 0, err
		}
		return float64(c.MACs), nil
	}
	best, n, err := search(t, context.Background(), levels, e, opts, 1, cost)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("evaluated only %d mappings", n)
	}
	if best.Cost != float64(e.MACs()) {
		t.Fatalf("best cost %g, want un-padded %d", best.Cost, e.MACs())
	}
}

func TestSearchAllCandidatesFail(t *testing.T) {
	levels := cimLevels(32, 16)
	e := mvm(t, 8, 32, 16)
	opts := defaultOpts()
	opts.MaxMappings = 5
	wantErr := errors.New("boom")
	_, _, err := search(t, context.Background(), levels, e, opts, 1, func(*mapping.Mapping) (float64, error) {
		return 0, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestSearchSkipsFailingCandidates(t *testing.T) {
	levels := cimLevels(32, 16)
	e := mvm(t, 8, 32, 16)
	opts := defaultOpts()
	opts.MaxMappings = 10
	calls := 0
	best, _, err := search(t, context.Background(), levels, e, opts, 1, func(m *mapping.Mapping) (float64, error) {
		calls++
		if calls%2 == 0 {
			return 0, errors.New("flaky")
		}
		return float64(calls), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Cost != 1 {
		t.Fatalf("best cost %g, want 1", best.Cost)
	}
}

// randomFactor must draw exactly like the slice-collecting version it
// replaced, drawing through math/rand's Rand: same divisors in the same
// order, same draws, whether a bound's divisors are computed or come from
// the sampler's table.
func TestRandomFactorMatchesCollectedDivisors(t *testing.T) {
	collected := func(rng *rand.Rand, b, limit int) int {
		if limit > b {
			limit = b
		}
		var cands []int
		for d := 1; d <= limit; d++ {
			if b%d == 0 {
				cands = append(cands, d)
			}
		}
		if limit < b && b%limit != 0 && (len(cands) == 0 || rng.Intn(4) == 0) {
			cands = append(cands, limit)
		}
		if len(cands) == 0 {
			return 1
		}
		return cands[rng.Intn(len(cands))]
	}
	var got seedSource
	got.Seed(9)
	want := rand.New(rand.NewSource(9))
	s := new(sampler)
	for b := 1; b <= 300; b++ {
		for limit := 1; limit <= b+2; limit++ {
			for rep := 0; rep < 3; rep++ {
				if g, w := s.randomFactor(&got, b, limit), collected(want, b, limit); g != w {
					t.Fatalf("randomFactor(%d, %d) = %d, want %d", b, limit, g, w)
				}
			}
		}
	}
	if got.Int63() != want.Int63() {
		t.Fatal("rng streams diverged")
	}
}
