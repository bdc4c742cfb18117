package sweepdef_test

import (
	"context"
	"testing"

	"repro/internal/serve"
	"repro/internal/sweepdef"
)

// TestSweepdefGeneratedDefinitionsEvaluate is the generator's end-to-end
// property: every seeded definition parses, validates, compiles, and —
// the part no amount of static checking covers — evaluates through the
// real batch executor without an error result. Run with -race in CI;
// the generator keeps grids toy-scale so 100 seeds stay cheap.
func TestSweepdefGeneratedDefinitionsEvaluate(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 10
	}
	srv := serve.NewServer(serve.BatchOptions{})
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			def, text, err := sweepdef.Generate(seed)
			if err != nil {
				t.Fatalf("Generate(%d): %v", seed, err)
			}
			reqs, err := def.Compile(nil)
			if err != nil {
				t.Fatalf("Generate(%d).Compile:\n%s\n%v", seed, text, err)
			}
			results, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
			if err != nil {
				t.Fatalf("seed %d: Sweep: %v\n%s", seed, err, text)
			}
			for i, res := range results {
				if res == nil {
					t.Fatalf("seed %d: request %d returned nil result\n%s", seed, i, text)
				}
				if res.Err != "" {
					t.Fatalf("seed %d: request %d (%s/%s) evaluated with error %q\n%s",
						seed, i, reqs[i].Macro, reqs[i].Network, res.Err, text)
				}
			}
		})
	}
}
