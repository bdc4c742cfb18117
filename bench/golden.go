package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// goldenJSON holds the canary outputs every workload must reproduce
// before it is timed. Regenerate it with -update-golden only in a change
// that alters model output on purpose.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenTol is the relative tolerance of a canary comparison.
const goldenTol = 1e-12

// goldens maps workload -> canary key -> value.
type goldens map[string]map[string]float64

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

// diff lists every key whose value differs from the golden by more than
// goldenTol, plus keys present on only one side. Empty means a match.
func (g goldens) diff(workload string, got map[string]float64) []string {
	want := g[workload]
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var out []string
	for _, k := range sorted {
		w, inWant := want[k]
		v, inGot := got[k]
		switch {
		case !inWant:
			out = append(out, fmt.Sprintf("%s %s: got %v, no golden", workload, k, v))
		case !inGot:
			out = append(out, fmt.Sprintf("%s %s: missing, golden %v", workload, k, w))
		case !withinTol(v, w):
			out = append(out, fmt.Sprintf("%s %s: got %v, golden %v (rel diff %.3g)", workload, k, v, w, relDiff(v, w)))
		}
	}
	return out
}

func withinTol(a, b float64) bool {
	if a == b {
		return true
	}
	return relDiff(a, b) <= goldenTol
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if b == 0 {
		return d
	}
	return d / math.Abs(b)
}

// writeGoldens regenerates the golden file from every workload's canary.
func writeGoldens(path string, cfg config) error {
	g := goldens{}
	for _, w := range workloads {
		inst, err := w.start(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		got, err := inst.canary()
		inst.close()
		if err != nil {
			return fmt.Errorf("%s canary: %w", w.name, err)
		}
		g[w.name] = got
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
