package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestParseBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	out := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSearchLayerSerial    	     252	   8812500 ns/op	       256.0 cands
BenchmarkSearchLayerSerial    	     260	   8500000 ns/op	       256.0 cands
BenchmarkSearchLayerParallel8-8 	     289	   7240013.5 ns/op
BenchmarkSweepWarmCache       	     100	    123456 ns/op
PASS
ok  	repro	6.134s
`
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	got := res.ns
	// Repetitions collapse to the minimum; the -procs suffix is stripped.
	if got["BenchmarkSearchLayerSerial"] != 8500000 {
		t.Fatalf("serial min = %g", got["BenchmarkSearchLayerSerial"])
	}
	if got["BenchmarkSearchLayerParallel8"] != 7240013.5 {
		t.Fatalf("parallel = %g", got["BenchmarkSearchLayerParallel8"])
	}
	if got["BenchmarkSweepWarmCache"] != 123456 {
		t.Fatalf("sweep = %g", got["BenchmarkSweepWarmCache"])
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	if len(res.allocs) != 0 {
		t.Fatalf("allocs parsed from lines without allocs/op: %v", res.allocs)
	}
}

// TestAllocsGate parses allocs/op (minimum over repetitions, with or
// without -benchmem's B/op column and custom metrics before it) and fails
// a benchmark whose allocs/op rose beyond the slack or stopped being
// reported.
func TestAllocsGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	out := `BenchmarkEvaluateMapping-2        	  163413	      6678 ns/op	    5184 B/op	      30 allocs/op
BenchmarkEvaluateMapping-2        	  160000	      6900 ns/op	    5184 B/op	      31 allocs/op
BenchmarkSearchLayerSerial-2      	     741	   1532361 ns/op	       256.0 cands	  213563 B/op	    1276 allocs/op
BenchmarkSearchLayerParallel2-2   	     694	   1523494 ns/op	       256.0 cands	 1405 allocs/op
BenchmarkSweepWarmCache           	     100	    123456 ns/op
`
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkEvaluateMapping":      30,
		"BenchmarkSearchLayerSerial":    1276,
		"BenchmarkSearchLayerParallel2": 1405,
	}
	if len(res.allocs) != len(want) {
		t.Fatalf("allocs = %v, want %v", res.allocs, want)
	}
	for k, v := range want {
		if res.allocs[k] != v {
			t.Fatalf("allocs[%s] = %g, want %g", k, res.allocs[k], v)
		}
	}

	// Equal or fewer allocations pass, and so does run-to-run jitter
	// within the slack.
	if n := gateAllocs(map[string]float64{
		"BenchmarkEvaluateMapping":      30,
		"BenchmarkSearchLayerSerial":    2000,
		"BenchmarkSearchLayerParallel2": 1400,
	}, res.allocs); n != 0 {
		t.Fatalf("gate failed %d checks on equal, lower or jittered allocs", n)
	}
	// A rise fails, and so does a recorded benchmark without allocs/op.
	if n := gateAllocs(map[string]float64{
		"BenchmarkEvaluateMapping": 29,
		"BenchmarkSweepWarmCache":  10,
	}, res.allocs); n != 2 {
		t.Fatalf("gate failed %d checks, want 2 (one rise, one unreported)", n)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(path, []byte("no benchmarks here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseBench(path); err == nil {
		t.Fatal("empty bench output parsed without error")
	}
}

// TestMedianNormalization: the gate scales the baseline by the median
// current/baseline ratio, so a run uniformly twice as slow passes, one
// benchmark 25% slower than its peers fails alone, and a fast outlier
// (the old single reference reading low, say) moves no allowance; -ref
// still normalizes by one named benchmark.
func TestMedianNormalization(t *testing.T) {
	base := map[string]float64{}
	for i, ns := range []float64{6635, 1594508, 445250, 998905, 858261, 887656, 621971, 336207, 7390000, 14110000, 299763, 341748, 1310000, 1687792} {
		base[fmt.Sprintf("BenchmarkB%02d", i)] = ns
	}
	run := func(f func(name string, ns float64) float64) map[string]float64 {
		cur := map[string]float64{}
		for name, ns := range base {
			cur[name] = f(name, ns)
		}
		return cur
	}
	gate := func(cur map[string]float64, ref string) (float64, int) {
		scale, _, err := speedScale(base, cur, ref)
		if err != nil {
			t.Fatal(err)
		}
		return scale, gateNs(base, cur, scale, 0.20, ref)
	}

	if scale, failed := gate(run(func(_ string, ns float64) float64 { return 2 * ns }), ""); scale != 2 || failed != 0 {
		t.Fatalf("uniformly 2x slower run: scale %g, %d failures, want 2 and none", scale, failed)
	}
	slow := run(func(name string, ns float64) float64 {
		if name == "BenchmarkB06" {
			return 1.25 * ns
		}
		return ns
	})
	if scale, failed := gate(slow, ""); scale != 1 || failed != 1 {
		t.Fatalf("one benchmark 25%% slower: scale %g, %d failures, want 1 and one", scale, failed)
	}
	fastRef := run(func(name string, ns float64) float64 {
		if name == "BenchmarkB00" {
			return 0.8 * ns
		}
		return ns
	})
	if scale, failed := gate(fastRef, ""); scale != 1 || failed != 0 {
		t.Fatalf("one benchmark 20%% faster: scale %g, %d failures, want 1 and none", scale, failed)
	}
	if scale, failed := gate(fastRef, "BenchmarkB00"); scale != 0.8 || failed != len(base)-1 {
		t.Fatalf("-ref on the fast benchmark: scale %g, %d failures, want 0.8 and every other benchmark", scale, failed)
	}
	if _, _, err := speedScale(base, map[string]float64{"BenchmarkOther": 1}, ""); err == nil {
		t.Fatal("no benchmark in common, yet a scale")
	}
	if _, _, err := speedScale(base, fastRef, "BenchmarkMissing"); err == nil {
		t.Fatal("-ref names a missing benchmark, yet a scale")
	}
}
