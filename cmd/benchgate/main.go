// Command benchgate is the CI benchmark-regression gate: it parses `go
// test -bench` output, compares it against a committed baseline
// (BENCH_baseline.json), and fails when a benchmark regressed beyond the
// tolerance.
//
// Raw ns/op numbers are machine-dependent, so the comparison is
// normalized by a reference benchmark present in both the baseline and
// the current run: every baseline figure is scaled by
// current(ref)/baseline(ref) before the tolerance is applied. A CI runner
// half as fast as the baseline machine doubles every allowance; what
// trips the gate is a benchmark slowing down relative to its peers.
//
//	go test -run xxx -bench 'SearchLayer|Sweep' -benchtime 3x -count 3 . > bench.txt
//	go run ./cmd/benchgate bench.txt             # gate against the baseline
//	go run ./cmd/benchgate -update bench.txt     # rewrite the baseline
//
// The gate also asserts the intra-request search fan-out actually scales:
// with -min-speedup S, BenchmarkSearchLayerSerial must be at least S
// times slower than BenchmarkSearchLayerParallel8 in the current run.
// The check is skipped on hosts with fewer than four CPUs (a 1-core
// container cannot exhibit parallel speedup, only preserve correctness).
//
// Allocations are gated too, without normalization (allocs/op does not
// depend on machine speed): every benchmark whose allocs/op the baseline
// records — those that call b.ReportAllocs, or all of them under
// -benchmem — must report allocs/op in the current run, and fails when
// it rises above the recorded figure by more than allocSlack.
//
// Similarly, -min-warm-speedup W asserts the durable warm start still
// pays: BenchmarkSweepColdCache must be at least W times slower than
// BenchmarkSweepWarmFromDisk. Unlike the parallel assertion this one
// holds on any CPU count — the win is avoided recomputation, not
// parallelism — so it is never skipped.
package main

import (
	"bufio"
	"encoding/json"
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
	// Reference names the benchmark used to normalize machine speed.
	Reference string `json:"reference"`
	// CPUs is the logical CPU count of the recording host. A baseline
	// recorded below 4 CPUs has no meaningful multi-core figures, so the
	// Serial-vs-Parallel8 speedup gate skips (with a visible warning)
	// rather than judging parallel scaling against serial-machine data.
	CPUs int `json:"cpus,omitempty"`
	// NsPerOp maps benchmark name (without the -procs suffix) to its
	// recorded ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps benchmark name to its recorded allocs/op, for the
	// benchmarks that reported allocations.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// warnf emits a skip notice both as plain output and as a GitHub Actions
// workflow command, so a skipped gate surfaces as an annotation on the
// run instead of a line lost in the log. Outside Actions the `::warning`
// line is inert stdout.
func warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Println("benchgate: " + msg)
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		fmt.Printf("::warning title=benchgate::%s\n", msg)
	}
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
// goroutines (the parallel searches and sweeps), far below a real
// regression — one more allocation per candidate of a 256-candidate
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
	ref := flag.String("ref", "BenchmarkEvaluateMapping", "reference benchmark for machine-speed normalization")
	minSpeedup := flag.Float64("min-speedup", 0,
		"required SearchLayerSerial/SearchLayerParallel8 ratio (0 disables; skipped below 4 CPUs)")
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
		b := Baseline{Note: *note, Reference: *ref, CPUs: runtime.NumCPU(), NsPerOp: cur}
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
		fmt.Printf("benchgate: wrote %s (%d benchmarks, reference %s)\n", *baselinePath, len(cur), *ref)
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
	// The baseline's recorded reference wins unless -ref was given
	// explicitly on the command line.
	refSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ref" {
			refSet = true
		}
	})
	if base.Reference != "" && !refSet {
		*ref = base.Reference
	}
	curRef, okCur := cur[*ref]
	baseRef, okBase := base.NsPerOp[*ref]
	if !okCur || !okBase || baseRef <= 0 {
		fatal(fmt.Errorf("reference benchmark %s missing from current run or baseline; run it alongside the gated set", *ref))
	}
	scale := curRef / baseRef
	fmt.Printf("benchgate: machine-speed scale %.3f (reference %s: %.0f ns/op now, %.0f recorded)\n",
		scale, *ref, curRef, baseRef)

	// Every baseline benchmark must be present in the current run: a
	// renamed benchmark, a drifted -bench regex, or a run that died
	// part-way would otherwise drop out of the gate silently.
	var names, missing []string
	for name := range base.NsPerOp {
		if name == *ref {
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
	if len(names) == 0 {
		fatal(fmt.Errorf("no gated benchmarks overlap between %s and the current run — -bench regex too narrow?", *baselinePath))
	}
	for _, name := range names {
		allowed := base.NsPerOp[name] * scale * (1 + *tolerance)
		got := cur[name]
		delta := got/(base.NsPerOp[name]*scale) - 1
		status := "ok"
		if got > allowed {
			status = "REGRESSION"
			failed++
		}
		fmt.Printf("  %-40s %12.0f ns/op  allowed %12.0f  (%+.1f%%)  %s\n",
			name, got, allowed, delta*100, status)
	}
	if len(base.AllocsPerOp) > 0 {
		fmt.Printf("benchgate: allocs/op may not rise (slack %.0f%%):\n", allocSlack*100)
		failed += gateAllocs(base.AllocsPerOp, res.allocs)
	}

	if *minSpeedup > 0 {
		serial, okS := cur["BenchmarkSearchLayerSerial"]
		par, okP := cur["BenchmarkSearchLayerParallel8"]
		_, okBaseS := base.NsPerOp["BenchmarkSearchLayerSerial"]
		_, okBaseP := base.NsPerOp["BenchmarkSearchLayerParallel8"]
		switch {
		case base.CPUs > 0 && base.CPUs < 4:
			warnf("committed baseline was recorded on %d CPU(s) and lacks meaningful multi-core entries — Serial-vs-Parallel8 gate skipped; refresh %s on a >=4-CPU host", base.CPUs, *baselinePath)
		case !okBaseS || !okBaseP:
			warnf("committed baseline lacks the SearchLayer serial/parallel pair — Serial-vs-Parallel8 gate skipped; refresh %s with the full bench set", *baselinePath)
		case runtime.NumCPU() < 4:
			warnf("%d CPUs on this host — parallel-speedup assertion skipped", runtime.NumCPU())
		case !okS || !okP:
			warnf("SearchLayer serial/parallel pair not in this run — speedup assertion skipped")
		default:
			speedup := serial / par
			fmt.Printf("benchgate: search fan-out speedup %.2fx at 8 workers (need >= %.2fx)\n", speedup, *minSpeedup)
			if speedup < *minSpeedup {
				fmt.Println("benchgate: FAIL — parallel mapping search no longer scales")
				failed++
			}
		}
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
		fmt.Printf("benchgate: FAIL — %d check(s) regressed, went missing, or stopped scaling\n", failed)
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
