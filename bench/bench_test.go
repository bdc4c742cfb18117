package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// quickConfig runs each workload at a tiny size: one pass for explore and
// fig6, 8 grid points for sweep-cold, 20 requests per window for
// serve-mixed.
func quickConfig(t *testing.T, trace bool) config {
	return config{seed: 1, quick: true, trace: trace, setupReps: 1,
		traceOut: filepath.Join(t.TempDir(), "trace.jsonl")}
}

func TestCanariesMatchGoldens(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		inst, err := w.start(quickConfig(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got, err := inst.canary()
		inst.close()
		if err != nil {
			t.Fatalf("%s canary: %v", w.name, err)
		}
		if d := g.diff(w.name, got); len(d) > 0 {
			t.Errorf("%s canary differs from the golden file:\n%s", w.name, strings.Join(d, "\n"))
		}
		// A perturbation far below any real model change must still fail.
		for k, v := range got {
			got[k] = v * (1 + 1e-9)
			break
		}
		if d := g.diff(w.name, got); len(d) != 1 {
			t.Errorf("%s: perturbed canary gave %d differences, want 1", w.name, len(d))
		}
	}
}

func TestPerturbedGoldenFailsRun(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	bad := goldens{}
	for w, kv := range g {
		bad[w] = map[string]float64{}
		for k, v := range kv {
			bad[w][k] = v
		}
	}
	bad["fig6-accuracy"]["layer5.rel_error"] *= 1.001
	w, _ := workloadByName("fig6-accuracy")
	rep, err := runWorkload(w, quickConfig(t, false), bad)
	if err == nil || rep == nil || rep.Correct || rep.Failed == 0 {
		t.Fatalf("perturbed golden: err %v, report %+v; want a failed, incorrect run", err, rep)
	}
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks that each metric BENCHMARK.json names comes out with its unit,
// that the traced replay reproduced the untraced results (a mismatch
// fails the run), and that layer self times cover the traced op time.
func TestEveryMetricEmitted(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(w, quickConfig(t, trace), g)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: incorrect run: %v", w.name, trace, rep.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, d.Name, m, d.Unit)
				}
			}
			if trace {
				if c := rep.Metrics["trace_coverage_frac"].Value; c < 0.9 {
					t.Errorf("%s: layer self times cover %.3f of traced op time, want >= 0.9", w.name, c)
				}
			}
		}
	}
}

// TestResultLine checks the last line of a run's output is the JSON
// result object with exactly the end-to-end metrics.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "fig6-accuracy", "--seed", "3", "--seconds", "0", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Attempted < 1 {
		t.Fatalf("result %+v", line)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json identical to the metric tables
// and workload list the program uses.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "improved"},
		{[]float64{100, 100, 100, 101, 99, 100, 100, 101, 99, 100}, "unchanged"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "worse"},
	} {
		if got, _, _ := judge(d, parent, c.change); got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.change, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 100, 90, 110}
	if got, _, _ := judge(d, noisy, parent); got != "unresolved" {
		t.Errorf("judge on a noisy parent = %s, want unresolved", got)
	}
}

func TestKindPercentile(t *testing.T) {
	// 9 fast ops and 3 slow ones, one slow op caught by a stall: the 90th
	// percentile is the slow kind's median, not the stall.
	lat := []float64{1, 1.1, 0.9, 1, 1.2, 1, 0.8, 1, 1.1, 5, 5.2, 40}
	kind := []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "b", "b", "b"}
	got, kinds := kindPercentile(lat, kind, 90)
	if got != 5.2 || kinds != 2 {
		t.Fatalf("kindPercentile = %v, %d kinds; want 5.2, 2", got, kinds)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
