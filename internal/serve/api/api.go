// Package api is the typed v1 wire contract of the batch-evaluation
// service: every request and response body the HTTP layer speaks and
// the structured error envelope live here and nowhere else. The server (internal/serve)
// marshals only these types; the Go SDK (internal/client) and the
// `cimloop` CLI unmarshal only these types — so the contract has one
// definition, compile-checked from both sides, instead of ad-hoc
// map[string]any shapes drifting apart.
//
// Compatibility rules: fields are only ever added (with omitempty where
// absence is meaningful), never renamed or retyped; error codes never
// change meaning; new endpoints get new types. See docs/API.md for the
// endpoint-by-endpoint reference.
package api

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/workload"
)

// EvalRequest describes one evaluation: an architecture source, an
// optional full-system wrap, and a workload. Exactly one of Macro, Spec,
// or Arch must be set, and exactly one of Network or Net. It is the body
// of POST /v1/evaluate and the element type of SweepRequest.Requests.
type EvalRequest struct {
	// Tag labels the result row; defaults to "arch/network[/scenario]".
	Tag string `json:"tag,omitempty"`

	// Macro names a published macro model ("base", "macro-a", ...,
	// "digital-cim").
	Macro string `json:"macro,omitempty"`
	// Spec is a textual container-hierarchy specification.
	Spec string `json:"spec,omitempty"`
	// Arch is a prebuilt architecture (programmatic callers only; never
	// on the wire).
	Arch *core.Arch `json:"-"`

	// Scenario optionally wraps the macro into a full system:
	// "all-tensors-from-dram", "weight-stationary", or
	// "weight-stationary+onchip-io".
	Scenario string `json:"scenario,omitempty"`
	// SystemMacros is the parallel macro count for the system wrap
	// (default 1; ignored without Scenario).
	SystemMacros int `json:"system_macros,omitempty"`

	// Network names a model-zoo workload ("resnet18", "vit-base", ...).
	Network string `json:"network,omitempty"`
	// Net is a prebuilt workload (programmatic callers only; never on the
	// wire).
	Net *workload.Network `json:"-"`
	// Layers caps the evaluated layer count (0 = all).
	Layers int `json:"layers,omitempty"`

	// MaxMappings overrides the server's per-layer mapping budget.
	MaxMappings int `json:"max_mappings,omitempty"`
	// Seed drives the mapping search (layer i uses Seed+i, matching the
	// sequential evaluator).
	Seed int64 `json:"seed,omitempty"`
	// SearchWorkers overrides the server's intra-request search fan-out
	// for this request: > 1 is a fixed width, 0 keeps the server default,
	// anything else searches serially. The effective width is still
	// clamped by the shared concurrency budget, so a request cannot
	// oversubscribe a busy pool; answers are identical at any width.
	SearchWorkers int `json:"search_workers,omitempty"`
}

// EvalResult is one completed evaluation — the response of POST
// /v1/evaluate and the element type of SweepResponse.Results. Err is set
// instead of the metrics when the request failed; a sweep always yields
// one EvalResult per EvalRequest, in request order.
type EvalResult struct {
	Tag     string `json:"tag"`
	Arch    string `json:"arch,omitempty"`
	Network string `json:"network,omitempty"`
	Err     string `json:"error,omitempty"`

	EnergyJ        float64 `json:"energy_j,omitempty"`
	EnergyPerMACpJ float64 `json:"energy_per_mac_pj,omitempty"`
	TOPSPerW       float64 `json:"tops_per_w,omitempty"`
	GOPS           float64 `json:"gops,omitempty"`
	AreaMM2        float64 `json:"area_mm2,omitempty"`
	MACs           int64   `json:"macs,omitempty"`
	TimeSec        float64 `json:"time_sec,omitempty"`
	ElapsedSec     float64 `json:"elapsed_sec,omitempty"`
	// MappingsEvaluated counts candidate mappings costed across all
	// layers.
	MappingsEvaluated int64 `json:"mappings_evaluated,omitempty"`

	// NetworkResult carries the full per-layer breakdown for programmatic
	// callers (experiments); it is not serialized.
	NetworkResult *core.NetworkResult `json:"-"`
}

// SweepRequest is the body of POST /v1/sweep: either an explicit
// request list or a macro x network x scenario grid specification, not
// both.
type SweepRequest struct {
	Requests []EvalRequest `json:"requests,omitempty"`

	Macros      []string `json:"macros,omitempty"`
	Networks    []string `json:"networks,omitempty"`
	Scenarios   []string `json:"scenarios,omitempty"`
	Layers      int      `json:"layers,omitempty"`
	MaxMappings int      `json:"max_mappings,omitempty"`

	// TimeoutSec caps the sweep's run time: the request context is
	// wrapped in context.WithTimeout, so expiry aborts in-flight layer
	// searches and the sweep answers 504. Zero means no deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// SweepResponse is the 200 body of POST /v1/sweep.
type SweepResponse struct {
	// Results has one entry per request, in request order.
	Results []*EvalResult `json:"results"`
	// Table is the rendered sweep table (the CLI prints it verbatim).
	Table string `json:"table"`
	// Cache snapshots the server's cache counters after the sweep.
	Cache CacheStats `json:"cache"`
}

// MacroInfo is one published macro model (paper Table III) in GET
// /v1/macros.
type MacroInfo struct {
	Macro      string `json:"macro"`
	Node       string `json:"node"`
	Device     string `json:"device"`
	InputBits  string `json:"input_bits"`
	WeightBits string `json:"weight_bits"`
	Array      string `json:"array"`
	ADCBits    string `json:"adc_bits"`
}

// MacrosResponse is the 200 body of GET /v1/macros.
type MacrosResponse struct {
	Macros []MacroInfo `json:"macros"`
}

// NetworkInfo is one model-zoo workload in GET /v1/networks.
type NetworkInfo struct {
	Name   string `json:"name"`
	Layers int    `json:"layers"`
	MACs   int64  `json:"macs"`
}

// NetworksResponse is the 200 body of GET /v1/networks.
type NetworksResponse struct {
	Networks []NetworkInfo `json:"networks"`
}

// ExperimentsResponse is the 200 body of GET /v1/experiments.
type ExperimentsResponse struct {
	// Experiments lists the built-in (compiled) paper experiments runnable
	// via POST /v1/experiments.
	Experiments []string `json:"experiments"`
	// Definitions lists the declarative sweeps/ definitions registered on
	// this server, each runnable via POST /v1/experiments/{name} with the
	// parameters in its schema. Empty when the server was started without
	// a sweeps directory.
	Definitions []ExperimentInfo `json:"definitions,omitempty"`
}

// ExperimentParam is one declared parameter in an experiment
// definition's schema: callers bind it by name in
// NamedExperimentRequest.Params.
type ExperimentParam struct {
	Name string `json:"name"`
	// Type is "string", "int", "float", or "bool".
	Type        string `json:"type"`
	Description string `json:"description,omitempty"`
	// Default is the value used when the parameter is not bound; its JSON
	// type matches Type.
	Default any `json:"default"`
	// Min and Max bound int/float parameters inclusively.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Choices restricts a string parameter to an explicit set.
	Choices []string `json:"choices,omitempty"`
}

// ExperimentInfo describes one named, parameterized experiment
// definition in GET /v1/experiments.
type ExperimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Source is "sweep" for sweeps/ definitions ("builtin" reserved for a
	// future unification with the compiled experiments list).
	Source string `json:"source"`
	// File is the definition's file name within the sweeps directory.
	File string `json:"file,omitempty"`
	// Requests is the grid size when every parameter takes its default.
	Requests int `json:"requests"`
	// Params is the parameter schema; bind values by Name.
	Params []ExperimentParam `json:"params,omitempty"`
}

// NamedExperimentRequest is the body of POST /v1/experiments/{name}. An
// empty body (or empty Params) runs the definition with every parameter
// at its default.
type NamedExperimentRequest struct {
	// Params binds declared parameters by name. Unknown names are
	// rejected; values are coerced to the declared types.
	Params map[string]any `json:"params,omitempty"`
	// TimeoutSec caps the run like SweepRequest.TimeoutSec.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// ExperimentRunRequest is the body of POST /v1/experiments.
type ExperimentRunRequest struct {
	Name        string `json:"name"`
	Fast        bool   `json:"fast,omitempty"`
	MaxMappings int    `json:"max_mappings,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
}

// ExperimentRunResponse is the 200 body of POST /v1/experiments.
type ExperimentRunResponse struct {
	// Tables are the rendered paper tables/figures, in the runner's order.
	Tables []string `json:"tables"`
}

// CacheStats snapshots the engine/context cache counters (healthz
// "cache" section and SweepResponse.Cache).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// Restored counts entries admitted from the on-disk warm-start store
	// at boot rather than computed (they count as neither hit nor miss).
	Restored uint64 `json:"restored"`
	// Compiles counts misses that ran the compute pipeline (an engine
	// compile or a layer-context preparation).
	Compiles uint64 `json:"compiles"`
}

// HitRate returns hits/(hits+misses), zero before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BudgetStats snapshots the shared evaluation-concurrency budget
// (healthz "search" section).
type BudgetStats struct {
	// Capacity is the total evaluation-concurrency budget (max of the
	// request pool width and the default search fan-out).
	Capacity int `json:"capacity"`
	// Available is the instantaneous unclaimed share of the budget.
	Available int `json:"available"`
	// SearchWorkers is the server's default per-request search fan-out
	// (1 = serial searches unless a request asks for more).
	SearchWorkers int `json:"search_workers"`
	// BlockedAcquires is retired and always 0: budget acquisition never
	// blocks. The field stays for readers of earlier healthz output.
	BlockedAcquires uint64 `json:"blocked_acquires"`
	// AdaptivePlans is retired and always 0: the search width is fixed
	// configuration, never tuned per layer. The field stays for readers
	// of earlier healthz output.
	AdaptivePlans uint64 `json:"adaptive_plans,omitempty"`
	// MappingsEvaluated is the lifetime count of candidate mappings costed
	// by this server across all requests. Monotonic, so two reads bracket
	// exactly the search work done between them.
	MappingsEvaluated int64 `json:"mappings_evaluated"`
}

// WarmStats summarizes one boot's warm-start scan.
type WarmStats struct {
	// Engines and Contexts count cache entries admitted from disk.
	Engines  int `json:"engines"`
	Contexts int `json:"contexts"`
	// Skipped counts files discarded during the scan: corrupt,
	// version-mismatched, of a retired kind, or failing fingerprint
	// re-verification. All are deleted (recomputation is the only
	// recovery).
	Skipped int `json:"skipped"`
}

// PersistStats is the healthz "persist" section.
type PersistStats struct {
	Enabled bool `json:"enabled"`
	// Warm is the boot-time scan summary.
	Warm WarmStats `json:"warm,omitempty"`
	// Cache is the write-behind counters of the cache store.
	Cache persist.Stats `json:"cache,omitempty"`
	// Error records a store that failed to open (the server then runs
	// without it rather than failing: persistence is optional).
	Error string `json:"error,omitempty"`
}

// ObsStats is the healthz "obs" section. Every number here is read back
// out of the server's metrics registry or its slow-request ring — the
// JSON health view and the Prometheus /metrics exposition share one set
// of producers, so the two surfaces cannot disagree.
type ObsStats struct {
	// Spans counts finished request spans (HTTP requests + sweep items).
	Spans int64 `json:"spans"`
	// SlowEntries is the slow-request ring's current occupancy;
	// SlowRecorded counts every entry ever recorded, including evicted
	// ones; SlowThresholdSec is the recording threshold (0 = record all,
	// negative = disabled).
	SlowEntries      int     `json:"slow_entries"`
	SlowRecorded     uint64  `json:"slow_recorded"`
	SlowThresholdSec float64 `json:"slow_threshold_sec"`
	// DroppedLabelSets counts metric updates collapsed into an overflow
	// series by the registry's label-cardinality bound.
	DroppedLabelSets uint64 `json:"dropped_label_sets,omitempty"`
	// TokenReloads / TokenReloadErrors count SIGHUP token-file
	// hot-reload attempts by outcome.
	TokenReloads      int64 `json:"token_reloads,omitempty"`
	TokenReloadErrors int64 `json:"token_reload_errors,omitempty"`
	// SweepReloads / SweepReloadErrors count sweep-definition reload
	// attempts by outcome (boot registration and SIGHUP).
	SweepReloads      int64 `json:"sweep_reloads,omitempty"`
	SweepReloadErrors int64 `json:"sweep_reload_errors,omitempty"`
}

// SlowResponse is the 200 body of GET /v1/debug/slow: the retained
// slow-request entries, newest first.
type SlowResponse struct {
	Requests []obs.SlowEntry `json:"requests"`
	// Recorded counts every entry ever recorded (evicted ones included);
	// ThresholdSec is the server's recording threshold.
	Recorded     uint64  `json:"recorded"`
	ThresholdSec float64 `json:"threshold_sec"`
}

// Version is the wire-contract generation, reported by /healthz.
const Version = "v1"

// HealthzResponse is the 200 body of GET /healthz.
type HealthzResponse struct {
	Status    string       `json:"status"`
	Version   string       `json:"version,omitempty"`
	UptimeSec float64      `json:"uptime_sec"`
	Cache     CacheStats   `json:"cache"`
	Search    BudgetStats  `json:"search"`
	Persist   PersistStats `json:"persist"`
	Obs       ObsStats     `json:"obs"`
}
