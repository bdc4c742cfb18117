// Package cimloop is a from-scratch Go implementation of CiMLoop
// (Andrulis, Emer, Sze — ISPASS 2024): a flexible, accurate, and fast
// Compute-In-Memory (CiM) modeling tool.
//
// CiMLoop models full CiM systems — devices, circuits, architecture,
// workload, and mapping together — with three key pieces:
//
//   - A flexible container-hierarchy specification describing circuits and
//     architecture in one representation with per-component data
//     movement/reuse directives (packages spec and specfile).
//   - An accurate data-value-dependent energy model that captures the
//     interaction between operand value distributions, data encodings/bit
//     slicing, and circuit energy (packages dist, enc, circuits, core).
//   - A fast statistical model that computes average energy per action
//     once per layer and amortizes it over thousands of mappings
//     (package core), validated against a value-level simulator
//     (package valuesim).
//
// This package is the public facade: construct published macro models or
// parse your own textual spec, compile an Engine, and evaluate workloads.
//
//	arch, _ := cimloop.Macro("macro-b")
//	eng, _ := cimloop.NewEngine(arch)
//	net, _ := cimloop.NetworkByName("resnet18")
//	res, _ := eng.EvaluateNetworkOptsCtx(ctx, net, cimloop.SearchOptions{MaxMappings: 100})
//	fmt.Println(res.TOPSPerW())
//
// # Batch evaluation and serving
//
// For many evaluations — sweeping macros, networks, and full-system
// scenarios — use the batch service instead of compiling engines per
// call. A Server owns a bounded worker pool and a content-addressed LRU
// cache keyed by (architecture, layer, encoding): engines and per-layer
// amortized contexts compile once and are shared across requests, so a
// warm sweep pays only the per-mapping count analysis.
//
//	srv := cimloop.NewServer(cimloop.BatchOptions{Workers: 8})
//	reqs := cimloop.SweepGrid(
//	    []string{"macro-a", "macro-b", "macro-d"},
//	    []string{"resnet18", "vit-base"},
//	    nil,  // no system wrap; pass scenario names for Fig. 15 systems
//	    0, 0) // default layer count and mapping budget
//	results, _ := srv.SweepCtx(ctx, reqs, 0, nil) // 0: the server's Workers
//	fmt.Println(cimloop.SweepResultsTable(results).String())
//	fmt.Printf("cache: %+v\n", srv.CacheStats())
//
// The same service speaks JSON over HTTP:
//
//	cimloop serve -addr :8080 -workers 8
//
// exposes GET /healthz (liveness + cache counters), POST /v1/evaluate
// (one request), POST /v1/sweep (a request list or a macro x network x
// scenario grid), GET /v1/macros, GET /v1/networks, and GET+POST
// /v1/experiments (list and run paper reproductions). For example:
//
//	curl -s localhost:8080/v1/evaluate -d \
//	    '{"macro": "macro-b", "network": "resnet18", "max_mappings": 20}'
//	curl -s localhost:8080/v1/sweep -d \
//	    '{"macros": ["macro-a", "macro-b"], "networks": ["resnet18"]}'
//
// # Sweeps, cancellation, and deadlines
//
// Every sweep runs synchronously, whatever its size: the response holds
// one result per request, in request order. Cancellation is plumbed
// through the evaluation pipeline — a dropped connection stops
// dispatching grid items and aborts in-flight per-layer mapping searches
// via context — and a sweep's "timeout_sec" deadline is enforced the
// same way (504 deadline_exceeded on expiry). Server.SweepCtx is the
// same path for programmatic use.
//
// The experiment runner itself routes its grid sweeps (Fig. 2, Fig.
// 13-16) through the same executor, so reproductions get the parallel
// speedup and cache reuse for free.
//
// # Typed v1 contract and Go SDK
//
// The entire wire contract — request/response types for every endpoint
// and a structured error envelope with stable machine-readable codes
// (invalid_request, not_found, deadline_exceeded, ...) — lives in
// internal/serve/api and is documented endpoint-by-endpoint in
// docs/API.md. Unknown routes, wrong methods, oversized bodies
// (bounded by BatchOptions.MaxBodyBytes), and recovered panics all
// answer that envelope as JSON, never net/http plain text. NewClient
// returns the Go SDK (package internal/client): context-aware typed
// methods, one per route, that decode the envelope into Go errors.
// BatchOptions.Token (`cimloop serve -token-file`) puts every endpoint
// but /healthz and /metrics behind one bearer token.
//
// # Durable warm starts
//
// The cache's amortized state — compiled engines and per-layer contexts
// (plain-data PMFs and energy tables) — can outlive the process. With
// BatchOptions.CacheDir set (or `cimloop serve -cache-dir`), cache fills
// stream to a versioned, checksummed, fingerprint-addressed on-disk
// store (package internal/persist) through a write-behind queue, and a
// restarted server scans the directory on boot: its first repeated
// request is a cache hit, with nothing recompiled (warm-from-disk ≈ 20x
// over a cold boot on the benchmark grid; CI gates the ratio at 5x). A
// sweep re-sent after a restart therefore skips layer setup and reruns
// only the mapping searches. Corrupt or version-mismatched files are
// skipped and reclaimed, never fatal, and restored entries are
// re-verified against their content fingerprints.
// Eviction is least recently used. Each record carries its measured
// compile time, and a boot admits records cheapest first, so when the
// directory holds more than the cache does, the costliest stay warm.
// With no directory configured nothing touches disk and behavior is
// unchanged.
//
// # Intra-request parallel mapping search
//
// Within one request, each layer's candidate mappings can be costed in
// parallel: SearchWorkers (a BatchOptions default, a per-request
// "search_workers" field, Engine.EvaluateNetworkOptsCtx's SearchOptions,
// or the CLI's -search-workers flag) fans evaluations across a bounded
// goroutine pool. The parallel search preserves the serial path's exact
// semantics — the winner is the minimum-cost candidate with ties broken
// by lowest candidate index, the first evaluation error is reported in
// candidate order, and cancellation is checked before every candidate —
// so results are bit-identical at any width; only latency changes. Inside
// a Server the fan-out draws on a concurrency budget shared with the
// request-level worker pool (capacity max(Workers, SearchWorkers),
// reported under /healthz as "search"): a saturated pool degrades
// searches to serial rather than oversubscribing the machine, and a lone
// request gets the whole budget.
package cimloop

import (
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/macros"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/specfile"
	"repro/internal/sweepdef"
	"repro/internal/system"
	"repro/internal/workload"
)

// Core modeling types.
type (
	// Arch is a compiled-ready CiM architecture: flattened hierarchy,
	// technology context, data representation, and mapper guidance.
	Arch = core.Arch
	// Engine evaluates layers and mappings on an Arch.
	Engine = core.Engine
	// Result is one layer evaluation (energy, breakdown, throughput).
	Result = core.Result
	// NetworkResult aggregates per-layer results over a network.
	NetworkResult = core.NetworkResult
	// LayerContext is the per-layer amortized state (PMFs and per-action
	// energies).
	LayerContext = core.LayerContext
	// SearchOptions bundles the per-layer mapping-search knobs (budget,
	// seed, and SearchWorkers for intra-layer parallel search).
	SearchOptions = core.SearchOptions
)

// Workload types.
type (
	// Network is a DNN workload: a sequence of layers with operand
	// statistics.
	Network = workload.Network
	// Layer is one tensor operation plus operand statistics.
	Layer = workload.Layer
)

// MacroConfig parameterizes the published macro models (Table III).
type MacroConfig = macros.Config

// SystemConfig parameterizes full-system composition (Fig. 15).
type SystemConfig = system.Config

// Scenario selects the full-system data placement (Fig. 15).
type Scenario = system.Scenario

// Full-system data placement scenarios.
const (
	AllDRAM          = system.AllDRAM
	WeightStationary = system.WeightStationary
	OnChipIO         = system.OnChipIO
)

// Table is a rendered experiment result.
type Table = report.Table

// ExperimentOptions tunes experiment reproduction runs.
type ExperimentOptions = experiments.Options

// NewEngine validates and compiles an architecture.
func NewEngine(a *Arch) (*Engine, error) { return core.NewEngine(a) }

// Macro constructs a published macro model by name: "base", "macro-a",
// "macro-b", "macro-c", "macro-d", or "digital-cim".
func Macro(name string) (*Arch, error) { return macros.ByName(name) }

// MacroBase builds the Base (NeuroSim-style) macro with overrides.
func MacroBase(cfg MacroConfig) (*Arch, error) { return macros.Base(cfg) }

// MacroA builds Macro A (Jia et al., 65 nm SRAM) with overrides.
func MacroA(cfg MacroConfig) (*Arch, error) { return macros.A(cfg) }

// MacroB builds Macro B (Sinangil et al., 7 nm SRAM) with overrides.
func MacroB(cfg MacroConfig) (*Arch, error) { return macros.B(cfg) }

// MacroC builds Macro C (Wan et al., 130 nm ReRAM) with overrides.
func MacroC(cfg MacroConfig) (*Arch, error) { return macros.C(cfg) }

// MacroD builds Macro D (Wang et al., 22 nm SRAM C-2C) with overrides.
func MacroD(cfg MacroConfig) (*Arch, error) { return macros.D(cfg) }

// NetworkByName returns a model-zoo workload: "resnet18", "vit-base",
// "mobilenetv3-large", "gpt2", or "toy".
func NetworkByName(name string) (*Network, error) { return workload.ByName(name) }

// MaxUtilization returns a matrix-vector workload exactly matching a
// rows x cols array.
func MaxUtilization(rows, cols, vectors int) (*Network, error) {
	return workload.MaxUtilization(rows, cols, vectors)
}

// ParseSpec decodes a textual container-hierarchy specification into an
// architecture (see internal/specfile for the format).
func ParseSpec(text string) (*Arch, error) { return specfile.Parse(text) }

// BuildSystem wraps a macro into a full system (DRAM + global buffer +
// router + parallel macros) for the given scenario.
func BuildSystem(macro *Arch, sc Scenario, cfg SystemConfig) (*Arch, error) {
	return system.Build(macro, sc, cfg)
}

// Batch-evaluation service types (package serve).
type (
	// Server is the concurrent batch-evaluation service: a worker pool
	// plus a content-addressed cache of engines and layer contexts that
	// outlives individual calls.
	Server = serve.Server
	// BatchOptions tunes the service (workers, mapping budget, cache
	// bound). The zero value is usable.
	BatchOptions = serve.BatchOptions
	// EvalRequest describes one batch evaluation: an architecture source
	// (macro name, spec text, or prebuilt Arch), an optional full-system
	// scenario, and a workload.
	EvalRequest = serve.Request
	// EvalResult is one completed batch evaluation.
	EvalResult = serve.Result
	// CacheStats snapshots the service cache's hit/miss/eviction counters.
	CacheStats = serve.Stats
	// SweepDefs is a validated set of declarative sweep definitions
	// (sweeps/*.yaml; see docs/EXPERIMENTS.md). Set it on
	// BatchOptions.SweepDefs — or use Server.ReloadSweepDefsDir — to
	// serve the definitions at POST /v1/experiments/{name}.
	SweepDefs = sweepdef.Set
	// SweepDef is one parsed definition: axes, budgets, and typed
	// parameters, compiled into an EvalRequest grid by Compile.
	SweepDef = sweepdef.Definition
	// PersistStats snapshots the durable warm-start layer (warm-scan
	// counts plus write-behind counters; zero-valued when disabled).
	PersistStats = serve.PersistStats
	// WarmStats summarizes one boot's warm-start scan.
	WarmStats = serve.WarmStats
)

// Typed v1 wire contract and Go SDK (packages internal/serve/api and
// internal/client; see docs/API.md).
type (
	// APIError is the structured v1 error envelope: a stable machine-
	// readable Code and a human-readable Message. The client SDK returns
	// these as Go errors.
	APIError = api.Error
	// APIErrorCode enumerates the stable error codes.
	APIErrorCode = api.ErrorCode
	// SweepRequest is the body of POST /v1/sweep: an explicit request
	// list or a grid, plus an optional deadline.
	SweepRequest = api.SweepRequest
	// Client is the Go SDK for a remote serve instance: one typed method
	// per route.
	Client = client.Client
)

// NewClient returns the Go SDK client for the serve instance at addr
// ("host:port" or a full URL).
func NewClient(addr string, opts ...client.Option) *Client { return client.New(addr, opts...) }

// NewServer constructs the batch-evaluation service with the experiment
// runner wired in, so its HTTP API can also list and regenerate paper
// artifacts.
func NewServer(opts BatchOptions) *Server {
	s := serve.NewServer(opts)
	s.ExperimentNames = experiments.Names
	s.RunExperiment = func(name string, fast bool, maxMappings int, seed int64) ([]*report.Table, error) {
		return experiments.Run(name, experiments.Options{Fast: fast, MaxMappings: maxMappings, Seed: seed})
	}
	return s
}

// SweepGrid builds the cross product of macros x networks x scenarios as
// a batch of evaluation requests.
func SweepGrid(macroNames, networks, scenarios []string, layers, maxMappings int) []EvalRequest {
	return serve.Grid(macroNames, networks, scenarios, layers, maxMappings)
}

// SweepResultsTable renders sweep results as a report table.
func SweepResultsTable(results []*EvalResult) *Table { return serve.SweepTable(results) }

// LoadTokenFile reads a bearer-token file (one token; surrounding
// whitespace trimmed) for BatchOptions.Token.
func LoadTokenFile(path string) (string, error) { return serve.LoadTokenFile(path) }

// LoadSweepDefs reads and validates a directory of declarative sweep
// definitions (see docs/EXPERIMENTS.md) for BatchOptions.SweepDefs. Any
// broken file fails the whole load.
func LoadSweepDefs(dir string) (*SweepDefs, error) { return sweepdef.LoadDir(dir) }

// Experiments lists the reproducible paper tables and figures.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one paper table or figure.
func RunExperiment(name string, o ExperimentOptions) ([]*Table, error) {
	return experiments.Run(name, o)
}
