// Command benchgate is the CI benchmark-regression gate: it parses `go
// test -bench` output, compares it against a committed baseline
// (BENCH_baseline.json), and fails when a benchmark regressed beyond the
// tolerance.
//
// Raw ns/op numbers are machine-dependent, so the comparison is
// normalized: every baseline figure is scaled by the median of the
// current/baseline ns/op ratios over every benchmark present in both
// runs before the tolerance is applied. A CI runner half as fast as the
// baseline machine doubles every allowance; what trips the gate is a
// benchmark slowing down relative to its peers. The median of a dozen
// ratios barely moves when one benchmark is noisy or slow, unlike the
// ratio of any single reference; -ref names a benchmark to normalize by
// instead.
//
//	go test -run xxx -bench 'SearchLayer|Sweep' -benchtime 3x -count 3 . > bench.txt
//	go run ./cmd/benchgate bench.txt             # gate against the baseline
//	go run ./cmd/benchgate -update bench.txt     # rewrite the baseline
//
// Allocations are gated too, without normalization (allocs/op does not
// depend on machine speed): every benchmark whose allocs/op the baseline
// records — those that call b.ReportAllocs, or all of them under
// -benchmem — must report allocs/op in the current run, and fails when
// it rises above the recorded figure by more than allocSlack.
//
// The gate also asserts, with -min-warm-speedup W, that the durable warm
// start still pays: BenchmarkSweepColdCache must be at least W times
// slower than BenchmarkSweepWarmFromDisk. The win is avoided
// recomputation, not parallelism, so it holds on any CPU count.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// Baseline is the committed benchmark record.
type Baseline struct {
	// Note documents the recording machine and the refresh command.
	Note string `json:"note,omitempty"`
	// CPUs is the logical CPU count of the recording host.
	CPUs int `json:"cpus,omitempty"`
	// NsPerOp maps benchmark name (without the -procs suffix) to its
	// recorded ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps benchmark name to its recorded allocs/op, for the
	// benchmarks that reported allocations.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	allocsLine = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// benchResults is what one `go test -bench` output says about its
// benchmarks, by name without the -procs suffix.
type benchResults struct {
	ns     map[string]float64 // minimum ns/op
	allocs map[string]float64 // minimum allocs/op, where reported
}

// parseBench reads `go test -bench` output and returns the minimum ns/op
// and allocs/op per benchmark name (minimum across -count repetitions,
// the least-noise estimator for a regression gate).
func parseBench(path string) (*benchResults, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &benchResults{ns: map[string]float64{}, allocs: map[string]float64{}}
	keepMin := func(m map[string]float64, name, field string) {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return
		}
		if prev, ok := m[name]; !ok || v < prev {
			m[name] = v
		}
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		keepMin(out.ns, m[1], m[2])
		if a := allocsLine.FindStringSubmatch(sc.Text()); a != nil {
			keepMin(out.allocs, m[1], a[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.ns) == 0 {
		return nil, fmt.Errorf("no benchmark results in %s", path)
	}
	return out, nil
}

// allocSlack is the fractional allocs/op rise the gate forgives: a
// small margin for run-to-run jitter in the benchmarks that start
// goroutines (the sweeps), far below a real regression — one more allocation per candidate of a 256-candidate
// search is a 20% rise.
const allocSlack = 0.02

// gateAllocs compares the current allocs/op against the baseline's and
// returns the number of failed checks: a recorded benchmark whose
// allocs/op rose beyond allocSlack, or that no longer reports allocs/op.
func gateAllocs(base, cur map[string]float64) int {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		got, ok := cur[name]
		status := "ok"
		switch {
		case !ok:
			status = "MISSING (allocs/op not reported; b.ReportAllocs removed?)"
			failed++
		case got > base[name]*(1+allocSlack):
			status = "REGRESSION"
			failed++
		}
		fmt.Printf("  %-40s %12.0f allocs/op  recorded %8.0f  %s\n", name, got, base[name], status)
	}
	return failed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from the bench output instead of gating")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional slowdown after normalization")
	ref := flag.String("ref", "", "reference benchmark for machine-speed normalization (default: the median ratio over all benchmarks)")
	minWarmSpeedup := flag.Float64("min-warm-speedup", 0,
		"required SweepColdCache/SweepWarmFromDisk ratio (0 disables)")
	note := flag.String("note", "", "note stored in the baseline on -update")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] bench_output.txt")
		os.Exit(2)
	}
	res, err := parseBench(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur := res.ns

	if *update {
		b := Baseline{Note: *note, CPUs: runtime.NumCPU(), NsPerOp: cur}
		if len(res.allocs) > 0 {
			b.AllocsPerOp = res.allocs
		}
		if b.Note == "" {
			b.Note = fmt.Sprintf("recorded on a %d-CPU host; refresh: go test -run xxx -bench . -benchtime 3x -count 3 . > bench.txt && go run ./cmd/benchgate -update bench.txt", runtime.NumCPU())
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *baselinePath, len(cur))
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}
	scale, how, err := speedScale(base.NsPerOp, cur, *ref)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchgate: machine-speed scale %.3f (%s)\n", scale, how)
	failed := gateNs(base.NsPerOp, cur, scale, *tolerance, *ref)
	if len(base.AllocsPerOp) > 0 {
		fmt.Printf("benchgate: allocs/op may not rise (slack %.0f%%):\n", allocSlack*100)
		failed += gateAllocs(base.AllocsPerOp, res.allocs)
	}

	if *minWarmSpeedup > 0 {
		cold, okC := cur["BenchmarkSweepColdCache"]
		warm, okW := cur["BenchmarkSweepWarmFromDisk"]
		if !okC || !okW {
			fmt.Println("benchgate: SweepColdCache/SweepWarmFromDisk pair not in this run — warm-start assertion skipped")
		} else {
			speedup := cold / warm
			fmt.Printf("benchgate: warm-from-disk speedup %.2fx over cold (need >= %.2fx)\n", speedup, *minWarmSpeedup)
			if speedup < *minWarmSpeedup {
				fmt.Println("benchgate: FAIL — warm starts no longer beat recompilation")
				failed++
			}
		}
	}

	if failed > 0 {
		fmt.Printf("benchgate: FAIL — %d check(s) regressed, went missing, or stopped paying\n", failed)
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

// speedScale returns the factor baseline ns/op figures are scaled by to
// this run's machine speed, and how it was found: the ns/op ratio of the
// reference benchmark ref, or with ref empty the median ratio over every
// benchmark in both runs.
func speedScale(base, cur map[string]float64, ref string) (float64, string, error) {
	if ref != "" {
		c, okCur := cur[ref]
		b, okBase := base[ref]
		if !okCur || !okBase || b <= 0 {
			return 0, "", fmt.Errorf("reference benchmark %s missing from current run or baseline; run it alongside the gated set", ref)
		}
		return c / b, fmt.Sprintf("reference %s: %.0f ns/op now, %.0f recorded", ref, c, b), nil
	}
	var ratios []float64
	for name, b := range base {
		if c, ok := cur[name]; ok && b > 0 {
			ratios = append(ratios, c/b)
		}
	}
	if len(ratios) == 0 {
		return 0, "", errors.New("no benchmark in both the current run and the baseline to normalize by — -bench regex too narrow?")
	}
	sort.Float64s(ratios)
	n := len(ratios)
	median := ratios[n/2]
	if n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return median, fmt.Sprintf("median current/baseline ns/op ratio of %d benchmarks", n), nil
}

// gateNs compares every baseline benchmark but the reference ref against
// the current run, scaled by scale, and returns the number of failed
// checks: a benchmark slower than its scaled figure by more than
// tolerance, or missing from the run. Every baseline benchmark must be
// present: a renamed benchmark, a drifted -bench regex, or a run that
// died part-way would otherwise drop out of the gate silently.
func gateNs(base, cur map[string]float64, scale, tolerance float64, ref string) int {
	var names, missing []string
	for name := range base {
		if name == ref {
			continue
		}
		if _, ok := cur[name]; ok {
			names = append(names, name)
		} else {
			missing = append(missing, name)
		}
	}
	sort.Strings(names)
	sort.Strings(missing)
	failed := 0
	if len(missing) > 0 {
		fmt.Printf("benchgate: %d baseline benchmark(s) absent from this run (regex drift? partial run?):\n", len(missing))
		for _, name := range missing {
			fmt.Printf("  %s\n", name)
		}
		failed += len(missing)
	}
	for _, name := range names {
		allowed := base[name] * scale * (1 + tolerance)
		got := cur[name]
		delta := got/(base[name]*scale) - 1
		status := "ok"
		if got > allowed {
			status = "REGRESSION"
			failed++
		}
		fmt.Printf("  %-40s %12.0f ns/op  allowed %12.0f  (%+.1f%%)  %s\n",
			name, got, allowed, delta*100, status)
	}
	return failed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
