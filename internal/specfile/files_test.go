package specfile

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Every shipped spec file must parse, compile, and evaluate.
func TestShippedSpecFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "specs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no shipped spec files")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			text, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			arch, err := Parse(string(text))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(arch)
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), workload.Toy().Layers[0], core.SearchOptions{MaxMappings: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if r.Energy <= 0 {
				t.Fatalf("energy %g", r.Energy)
			}
		})
	}
}
