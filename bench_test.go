package cimloop

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/valuesim"
	"repro/internal/workload"
)

// benchOpts keeps per-iteration work bounded so the full bench suite
// completes in minutes while still regenerating every figure's series.
func benchOpts() experiments.Options {
	return experiments.Options{Fast: true, Seed: 1, Workers: 4}
}

// benchExperiment runs one paper artifact end to end per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(name, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// One benchmark per table and figure in the paper's evaluation.

func BenchmarkFig2a(b *testing.B)  { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)  { benchExperiment(b, "fig2b") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationAmortization(b *testing.B) { benchExperiment(b, "ablation-amortization") }
func BenchmarkAblationJointVsIndependent(b *testing.B) {
	benchExperiment(b, "ablation-joint")
}

// Micro-benchmarks isolating the model's hot paths.

func benchEngine(b *testing.B) (*core.Engine, *core.LayerContext) {
	b.Helper()
	arch, err := macros.Base(macros.Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := eng.PrepareLayer(workload.ResNet18().Layers[5])
	if err != nil {
		b.Fatal(err)
	}
	return eng, ctx
}

// BenchmarkPrepareLayer measures the per-layer data-value-dependent setup
// (Algorithm 1 lines 3-7), which is amortized over mappings.
func BenchmarkPrepareLayer(b *testing.B) {
	eng, _ := benchEngine(b)
	layer := workload.ResNet18().Layers[5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PrepareLayer(layer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateMapping measures the per-mapping cost (Algorithm 1
// lines 8-10) — the loop that dominates design-space exploration.
func BenchmarkEvaluateMapping(b *testing.B) {
	eng, ctx := benchEngine(b)
	m, err := eng.GreedyMapping(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateMapping(ctx, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the count analysis on its own, one-shot:
// mapping.Analyze compiles the layer's Plan and analyzes one mapping.
func BenchmarkAnalyze(b *testing.B) {
	eng, ctx := benchEngine(b)
	m, err := eng.GreedyMapping(ctx)
	if err != nil {
		b.Fatal(err)
	}
	levels := eng.Arch().Levels
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Analyze(levels, ctx.Sliced, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeInto measures the per-candidate count analysis of a
// search: a Plan compiled once, sampled candidates analyzed into a warm
// Scratch. It allocates nothing.
func BenchmarkAnalyzeInto(b *testing.B) {
	eng, ctx := benchEngine(b)
	levels := eng.Arch().Levels
	cands, err := mapper.Sample(levels, ctx.Sliced, eng.Arch().MapperOptions(256, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := mapping.NewPlan(levels, ctx.Sliced)
	if err != nil {
		b.Fatal(err)
	}
	s := new(mapping.Scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.AnalyzeInto(cands[i%len(cands)], s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperSample measures candidate mapping generation throughput
// at the search benchmarks' budget: draw, dedup, validation and a copy
// the caller owns per candidate. A search copies out only its winner, so
// this ns/cand over SearchLayerSerial's bounds from above the share of a
// search spent generating rather than pricing.
func BenchmarkMapperSample(b *testing.B) {
	eng, ctx := benchEngine(b)
	opts := eng.Arch().MapperOptions(searchBudget, 1)
	b.ReportAllocs()
	b.ResetTimer()
	cands := 0
	for i := 0; i < b.N; i++ {
		ms, err := mapper.Sample(eng.Arch().Levels, ctx.Sliced, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) == 0 {
			b.Fatal("no mappings")
		}
		cands += len(ms)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cands), "ns/cand")
}

// BenchmarkValueSimulator measures the value-level ground truth at Fig. 6
// size (64x32 value-aware base macro, Steps 32): the slow path the
// statistical model replaces (Table II's left column).
func BenchmarkValueSimulator(b *testing.B) {
	arch, err := macros.Base(macros.Config{Rows: 64, Cols: 32, ValueAwareADC: true})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		b.Fatal(err)
	}
	layer := workload.ResNet18().Layers[5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := valuesim.Simulate(eng, layer, valuesim.Config{Steps: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkEvaluation measures a full ResNet18 sweep at a small
// mapping budget: the end-to-end exploration workload.
func BenchmarkNetworkEvaluation(b *testing.B) {
	arch, err := macros.Base(macros.Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		b.Fatal(err)
	}
	net := workload.ResNet18()
	net.Layers = net.Layers[:6]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, core.SearchOptions{MaxMappings: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// searchBudget is the candidate budget of the search benchmarks: large
// enough that pricing, not the search's fixed setup, dominates.
const searchBudget = 256

// BenchmarkSearchLayerSerial measures one layer's mapping search at
// searchBudget candidates: sampling, count analysis and bounded pricing
// on the caller's goroutine.
func BenchmarkSearchLayerSerial(b *testing.B) {
	eng, lctx := benchEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	cands := 0
	for i := 0; i < b.N; i++ {
		r, evaluated, err := eng.SearchLayerOptsCtx(ctx, lctx, core.SearchOptions{
			MaxMappings: searchBudget, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if r == nil || evaluated == 0 {
			b.Fatal("empty search")
		}
		if i == 0 {
			b.ReportMetric(float64(evaluated), "cands")
		}
		cands += evaluated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cands), "ns/cand")
}

// BenchmarkEvaluateRequestWarm measures the serve path end to end on a
// warm cache: the single-request latency a client of /v1/evaluate sees
// once the engine and layer contexts are compiled.
func BenchmarkEvaluateRequestWarm(b *testing.B) {
	srv := NewServer(BatchOptions{})
	req := EvalRequest{Macro: "base", Network: "toy", MaxMappings: searchBudget}
	if _, err := srv.EvaluateCtx(context.Background(), req); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.EvaluateCtx(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateRequestNewSystem measures a cold /v1/evaluate as the
// serve-mixed benchmark sends it: the base macro in a weight-stationary
// system of a macro count no earlier request named, over all of
// mobilenetv3-large at 16 mappings, on a server that has evaluated that
// macro, scenario and network before. Each iteration compiles a new
// engine and prepares every layer context; the operand stages and
// column sums come from the server's preparation memo.
func BenchmarkEvaluateRequestNewSystem(b *testing.B) {
	srv := NewServer(BatchOptions{})
	req := EvalRequest{Macro: "base", Network: "mobilenetv3-large", Scenario: WeightStationary.String(),
		SystemMacros: 1, MaxMappings: 16}
	if _, err := srv.EvaluateCtx(context.Background(), req); err != nil { // prime the memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.SystemMacros = 2 + i
		if _, err := srv.EvaluateCtx(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMappingsPerSecond reports the paper's Table II headline metric
// directly as mappings/sec on one core.
func BenchmarkMappingsPerSecond(b *testing.B) {
	eng, ctx := benchEngine(b)
	cands, err := mapper.Sample(eng.Arch().Levels, ctx.Sliced, eng.Arch().MapperOptions(256, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateMapping(ctx, cands[i%len(cands)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "mappings/s")
}

// Batch-service benchmarks: the cross-request amortization of package
// serve. The sweep grid is 3 macros x 2 networks with a small mapping
// budget, so per-layer setup (what the cache elides) dominates.

// benchSweepGrid is the 3-macro x 2-network grid the serve benchmarks
// run, each macro alone unless scenarios name Fig. 15 systems to wrap it
// in.
func benchSweepGrid(scenarios ...string) []EvalRequest {
	return SweepGrid(
		[]string{"base", "macro-b", "macro-d"},
		[]string{"toy", "mobilenetv3-large"},
		scenarios,
		2, // first layers of each network
		4, // small mapping budget: setup dominates
	)
}

func runSweep(b *testing.B, srv *Server, workers int) {
	b.Helper()
	runGrid(b, srv, benchSweepGrid(), workers)
}

func runGrid(b *testing.B, srv *Server, grid []EvalRequest, workers int) {
	b.Helper()
	results, err := srv.SweepCtx(context.Background(), grid, workers, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range results {
		if r.Err != "" {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkSweepColdCache measures a first-contact sweep: every request
// compiles its engine and prepares every layer context.
func BenchmarkSweepColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srv := NewServer(BatchOptions{Workers: 1})
		runSweep(b, srv, 1)
	}
}

// BenchmarkSweepColdScenarios measures a first-contact sweep of
// benchSweepGrid's macros, each alone and inside the three Fig. 15
// system scenarios, on a fresh server per iteration. A macro's four
// architectures share operand stages and reduction depths, so the
// server's preparation memo encodes, slices and multiplies each
// layer's operands once and sums each column once.
func BenchmarkSweepColdScenarios(b *testing.B) {
	grid := benchSweepGrid("", AllDRAM.String(), WeightStationary.String(), OnChipIO.String())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv := NewServer(BatchOptions{Workers: 1})
		runGrid(b, srv, grid, 1)
	}
}

// BenchmarkSweepWarmCache measures the same sweep against a warmed cache:
// engines and layer contexts are shared, only mapping search runs.
func BenchmarkSweepWarmCache(b *testing.B) {
	srv := NewServer(BatchOptions{Workers: 1})
	runSweep(b, srv, 1) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(b, srv, 1)
	}
}

// BenchmarkSweepWarmFromDisk measures a restart with a populated cache
// dir: each iteration boots a fresh server (scan + decode + admit) and
// runs the sweep from the restored entries. The delta against
// BenchmarkSweepColdCache is the warm-start win — decoding plain-data
// energy tables instead of re-running the per-layer pipeline — and the
// delta against BenchmarkSweepWarmCache is the disk round trip's price.
// CI's benchmark gate asserts ColdCache/WarmFromDisk stays above
// -min-warm-speedup (see cmd/benchgate).
func BenchmarkSweepWarmFromDisk(b *testing.B) {
	dir := b.TempDir()
	seed := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	runSweep(b, seed, 1)
	seed.Close() // flush the write-behind queue
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
		runSweep(b, srv, 1)
		b.StopTimer()
		srv.Close() // teardown (writer drain) off the clock
		b.StartTimer()
	}
}

// BenchmarkSweep1Worker and BenchmarkSweepNWorkers measure the worker
// pool's scaling on a warm cache, so the comparison isolates the
// executor (request-level fan-out) from one-time compile costs. The
// cold-cache 1-worker baseline is BenchmarkSweepColdCache above.
func BenchmarkSweep1Worker(b *testing.B) {
	srv := NewServer(BatchOptions{})
	runSweep(b, srv, 1) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(b, srv, 1)
	}
}

func BenchmarkSweepNWorkers(b *testing.B) {
	srv := NewServer(BatchOptions{})
	runSweep(b, srv, 0) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(b, srv, 0) // 0 = one per CPU
	}
}

// Example-style sanity: the facade compiles and evaluates end to end.
func BenchmarkFacadeQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arch, err := Macro("macro-b")
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine(arch)
		if err != nil {
			b.Fatal(err)
		}
		net, err := MaxUtilization(64, 64, 16)
		if err != nil {
			b.Fatal(err)
		}
		r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), net.Layers[0], core.SearchOptions{MaxMappings: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if r.Energy <= 0 {
			b.Fatal("no energy")
		}
	}
}
