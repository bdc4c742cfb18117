// Command bench is the repository benchmark. It runs one workload (or,
// without -workload, every workload in its own child process), checks
// every output against goldens and invariants, and prints each metric as
// "workload metric value unit", then one JSON result object as the last
// line of standard output:
//
//	bash bench/run.sh --workload explore-resnet18 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload fig6-accuracy --seed 2 --trace 1
//	bench -compare parent.jsonl change.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing the
// public calls each op is made of. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	seed      int64
	window    time.Duration // how long ops are measured
	trace     bool
	quick     bool // tiny sizes, for tests
	setupReps int
	traceOut  string
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	// start builds the workload's state from cfg.seed: everything a user
	// pays for before the first op. It is timed as part of setup_s.
	start func(cfg config) (instance, error)
}

// instance is one workload's live state.
type instance interface {
	// canary runs a fixed, seed-independent check whose outputs must
	// equal the goldens. It is timed as part of setup_s.
	canary() (map[string]float64, error)
	// measure runs ops until the window closes, untraced, timing the
	// reference loop before every op (see speedometer).
	measure(cfg config, window time.Duration) (*windowResult, error)
	// traced runs the same kind of ops through the public calls they are
	// made of, recording spans. It fails if the replay does not
	// reproduce the untraced results.
	traced(cfg config, window time.Duration, tr *tracer, base *windowResult) (*layerTimes, error)
	close()
}

// windowResult is what one untraced measurement saw.
type windowResult struct {
	// elapsed is the window's wall time; busy is its host-speed-
	// normalized length in seconds.
	elapsed time.Duration
	busy    float64
	// raw and lat are each completed op's wall and normalized latency in
	// ms; kind names its input shape (see kindPercentile), end is when it
	// ended and by is the index of the goroutine that issued it, in sps.
	raw       []float64
	lat       []float64
	kind      []string
	end       []time.Time
	by        []int
	sps       []*speedometer
	attempted int
	failed    int
	errs      []string
	mappings  int64
	// layer holds per-layer metrics that need no tracing (counters,
	// accuracy); extra holds workload-specific metrics printed beside
	// the contract's.
	layer metrics
	extra metrics
	// samples names the sample count behind each extra percentile.
	samples map[string]int
}

// newWindow returns a window for ops issued by the given number of
// goroutines, each with its own speedometer.
func newWindow(issuers int) *windowResult {
	w := &windowResult{layer: metrics{}, extra: metrics{}, samples: map[string]int{}}
	for i := 0; i < issuers; i++ {
		w.sps = append(w.sps, &speedometer{})
	}
	return w
}

// op records one completed op of the given kind that goroutine by
// issued, which took d and ended at end.
func (w *windowResult) op(by int, kind string, d time.Duration, end time.Time) {
	w.raw = append(w.raw, ms(d))
	w.kind = append(w.kind, kind)
	w.end = append(w.end, end)
	w.by = append(w.by, by)
}

// normalize fills lat from raw, scaling each op by its goroutine's
// samples on either side of it, and sets busy so that ops over busy is
// the sum over goroutines of their ops over their scaled busy time.
func (w *windowResult) normalize(start time.Time) {
	w.elapsed = time.Since(start)
	w.lat = make([]float64, len(w.raw))
	// The margin takes in the samples run just before and after an op.
	const margin = 2 * time.Millisecond
	ops := make([]float64, len(w.sps))
	busy := make([]float64, len(w.sps))
	for i, d := range w.raw {
		from := w.end[i].Add(-time.Duration(d * float64(time.Millisecond)))
		w.lat[i] = d * w.sps[w.by[i]].factor(from.Add(-margin), w.end[i].Add(margin))
		ops[w.by[i]]++
		busy[w.by[i]] += w.lat[i] / 1000
	}
	rate := 0.0
	for i := range ops {
		if busy[i] > 0 {
			rate += ops[i] / busy[i]
		}
	}
	if rate > 0 {
		w.busy = float64(len(w.raw)) / rate
	}
}

// refTimes returns every reference-loop duration the window sampled.
func (w *windowResult) refTimes() []float64 {
	var out []float64
	for _, sp := range w.sps {
		out = append(out, sp.dur...)
	}
	return out
}

func (w *windowResult) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// layerTimes is what one traced measurement attributes to each layer.
type layerTimes struct {
	// self maps a per-layer self-time metric name to seconds.
	self map[string]float64
	// opSeconds is the traced ops' total time without the measurement
	// probes; baseSeconds is the untraced time of the same ops.
	opSeconds   float64
	baseSeconds float64
	ops         int
	extra       metrics
}

var workloads = []workloadDef{
	{name: "explore-resnet18", start: startExplore},
	{name: "sweep-cold", start: startSweep},
	{name: "serve-mixed", start: startServe},
	{name: "fig6-accuracy", start: startFig6},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// report is the full record of one run, written by -out as one JSON line
// and read back by -compare.
type report struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   metrics        `json:"metrics"`
	Samples   map[string]int `json:"samples"`
	Errors    []string       `json:"errors,omitempty"`
	GoVersion string         `json:"go_version"`
	CPUs      int            `json:"cpus"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// traceFlag is a 0/1 flag that takes its value as a separate argument
// ("--trace 1"), which a boolean flag cannot.
type traceFlag bool

func (t *traceFlag) String() string {
	if *t {
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("want 0 or 1")
	}
	*t = traceFlag(v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long ops are measured")
	var trace traceFlag
	fs.Var(&trace, "trace", "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	out := fs.String("out", "", "append each run's full report as one JSON line to this file")
	traceOut := fs.String("trace-out", "", "span JSONL file (default .bench_build/trace/<workload>.jsonl)")
	update := fs.Bool("update-golden", false, "regenerate the canary goldens and exit")
	compare := fs.Bool("compare", false, "compare two -out files: -compare PARENT.jsonl CHANGE.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		trace:     bool(trace),
		setupReps: 5,
		traceOut:  *traceOut,
	}
	if *update {
		path := filepath.Join("bench", "testdata", "golden.json")
		if err := writeGoldens(path, cfg); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "bench: wrote", path)
		return 0
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", w.name+".jsonl")
	}
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep, err := runWorkload(w, cfg, g)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		if rep == nil {
			return 1
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
	}
	printReport(stdout, rep)
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = rep.Metrics[d.Name]
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload sets up w cfg.setupReps times (keeping the last instance),
// measures it, and with cfg.trace also measures it traced. A non-nil
// report with Correct false comes back for a golden mismatch, a failed
// op, or a replay that does not reproduce the untraced results.
func runWorkload(w workloadDef, cfg config, g goldens) (*report, error) {
	rep := &report{
		Workload:  w.name,
		Seed:      cfg.seed,
		Seconds:   cfg.window.Seconds(),
		Trace:     cfg.trace,
		Metrics:   metrics{},
		Samples:   map[string]int{},
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}
	var inst instance
	var setups, setupsRaw []float64
	for i := 0; i < cfg.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		sp := &speedometer{}
		for j := 0; j < 3; j++ {
			sp.sample()
		}
		t0 := time.Now()
		var err error
		inst, err = w.start(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		got, err := inst.canary()
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("canary: %w", err)
		}
		if d := g.diff(w.name, got); len(d) > 0 {
			inst.close()
			rep.Errors = append([]string{"canary differs from bench/testdata/golden.json:"}, d...)
			rep.Attempted, rep.Failed = 1, 1
			return rep, errors.New("golden mismatch")
		}
		d := time.Since(t0)
		for j := 0; j < 3; j++ {
			sp.sample()
		}
		setupsRaw = append(setupsRaw, d.Seconds())
		setups = append(setups, d.Seconds()*sp.factor(t0, t0.Add(d)))
	}
	defer inst.close()
	rep.Metrics.set("setup_s", median(setups), "s")
	rep.Metrics.set("setup_s.raw", median(setupsRaw), "s")
	rep.Samples["setup"] = len(setups)

	span := cfg.window
	if cfg.trace {
		span /= 2 // half untraced (the base for the overhead), half traced
	}
	before := readRuntime()
	stopRSS := sampleRSS(20 * time.Millisecond)
	win, err := inst.measure(cfg, span)
	rss := stopRSS()
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	after := readRuntime()
	rep.Metrics.set("rss_mb_p90", percentile(rss, 90), "MB")
	rep.Samples["rss"] = len(rss)
	rep.Attempted, rep.Failed, rep.Errors = win.attempted, win.failed, win.errs
	ops := len(win.lat)
	el := win.elapsed.Seconds()
	rep.Metrics.set("ops_per_s", float64(ops)/win.busy, "1/s")
	rep.Metrics.set("op_ms_p50", percentile(win.lat, 50), "ms")
	p90, kinds := kindPercentile(win.lat, win.kind, 90)
	rep.Metrics.set("op_ms_p90", p90, "ms")
	rep.Metrics.set("op_ms_p90.per_op", percentile(win.lat, 90), "ms")
	rep.Metrics.set("mappings_per_s", float64(win.mappings)/win.busy, "1/s")
	rep.Metrics.set("ops_per_s.raw", float64(ops)/el, "1/s")
	rep.Metrics.set("op_ms_p50.raw", percentile(win.raw, 50), "ms")
	p90raw, _ := kindPercentile(win.raw, win.kind, 90)
	rep.Metrics.set("op_ms_p90.raw", p90raw, "ms")
	rep.Metrics.set("mappings_per_s.raw", float64(win.mappings)/el, "1/s")
	ref := win.refTimes()
	rep.Metrics.set("host.ref_ms_p50", median(ref), "ms")
	rep.Metrics.set("host.ref_ms_p90", percentile(ref, 90), "ms")
	rep.Samples["host.ref"] = len(ref)
	rep.Samples["op"] = ops
	rep.Samples["op_beyond_p90"] = ops - int(0.9*float64(ops)+0.5)
	rep.Samples["op_kinds"] = kinds
	for _, d := range perLayer {
		rep.Metrics.set(d.Name, 0, d.Unit)
	}
	if ops > 0 {
		rep.Metrics.set("runtime.alloc_kb_per_op", float64(after.alloc-before.alloc)/1024/float64(ops), "KB")
		rep.Metrics.set("runtime.mallocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops), "count")
	}
	if cpu := after.cpu - before.cpu; cpu > 0 {
		rep.Metrics.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu, "ratio")
	}
	for k, v := range win.layer {
		rep.Metrics[k] = v
	}
	for k, v := range win.extra {
		rep.Metrics[k] = v
	}
	for k, v := range win.samples {
		rep.Samples[k] = v
	}
	if cfg.trace {
		tr := newTracer()
		lt, err := inst.traced(cfg, span, tr, win)
		if err != nil {
			rep.Errors = append(rep.Errors, "traced run: "+err.Error())
			rep.Failed++
		} else {
			covered := 0.0
			for k, v := range lt.self {
				rep.Metrics.set(k, v/lt.opSeconds, "ratio")
				covered += v
			}
			rep.Metrics.set("trace_coverage_frac", covered/lt.opSeconds, "ratio")
			rep.Metrics.set("trace_overhead_frac", lt.opSeconds/lt.baseSeconds-1, "ratio")
			for k, v := range lt.extra {
				rep.Metrics[k] = v
			}
			rep.Samples["traced_op"] = lt.ops
			tr.printSelfTimes(w.name)
			if err := tr.writeJSONL(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
		}
	}
	rep.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// runtimeSample is a snapshot of the runtime counters a window reads.
type runtimeSample struct {
	alloc, mallocs uint64
	cpu, gcCPU     float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSample{
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		cpu:     s[0].Value.Float64(),
		gcCPU:   s[1].Value.Float64(),
	}
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM),
// falling back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sampleRSS reads the resident set size every period until the returned
// function is called; that function stops sampling, waits for the
// sampler to exit and returns the samples in MB.
func sampleRSS(period time.Duration) func() []float64 {
	done := make(chan struct{})
	exited := make(chan struct{})
	var rss []float64
	page := float64(os.Getpagesize()) / (1 << 20)
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				b, err := os.ReadFile("/proc/self/statm")
				if err != nil {
					return // not Linux: no samples, and rss_mb_p90 reads 0
				}
				if f := strings.Fields(string(b)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						rss = append(rss, pages*page)
					}
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-exited
		return rss
	}
}

// printReport writes every metric and sample count as
// "workload name value unit", sorted by name.
func printReport(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", rep.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	samples := make([]string, 0, len(rep.Samples))
	for n := range rep.Samples {
		samples = append(samples, n)
	}
	sort.Strings(samples)
	for _, n := range samples {
		fmt.Fprintf(w, "%s samples.%s %d count\n", rep.Workload, n, rep.Samples[n])
	}
}

func appendReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, one at a time, so
// each workload's memory metrics are its own. Children get the same flags
// plus -workload; their output passes through, and the last line
// aggregates their result lines.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	total := resultLine{Correct: true, Metrics: metrics{}}
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = sc.Text()
		}
		waitErr := cmd.Wait()
		var line resultLine
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result line (%v)\n", w.name, waitErr)
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && line.Correct && waitErr == nil
		total.Attempted += line.Attempted
		total.Failed += line.Failed
		for k, v := range line.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !total.Correct {
		return 1
	}
	return 0
}
