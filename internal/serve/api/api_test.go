package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// The golden files under testdata/ ARE the wire contract: if a change
// to these types alters any serialized byte, the corresponding test
// fails and the diff is staring at you. Additive changes regenerate the
// files deliberately with:
//
//	go test ./internal/serve/api -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

// f64 builds the *float64 bounds of ExperimentParam literals.
func f64(v float64) *float64 { return &v }

// goldenCases instantiates every wire type with every field populated
// (omitempty fields must appear in the goldens, or silent renames could
// hide). Values are fixed, never derived from the clock.
func goldenCases() []struct {
	name string
	v    any
} {
	created := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)

	return []struct {
		name string
		v    any
	}{
		{"eval_request", EvalRequest{
			Tag: "t", Macro: "macro-b", Scenario: "weight-stationary",
			SystemMacros: 4, Network: "resnet18", Layers: 3,
			MaxMappings: 60, Seed: 7, SearchWorkers: 8,
		}},
		{"eval_request_spec", EvalRequest{Spec: "container ...", Network: "toy"}},
		{"eval_result", EvalResult{
			Tag: "base/toy", Arch: "base", Network: "toy",
			EnergyJ: 1.25e-3, EnergyPerMACpJ: 0.5, TOPSPerW: 12.5,
			GOPS: 800, AreaMM2: 0.9, MACs: 123456, TimeSec: 2.5e-4,
			ElapsedSec: 0.125, MappingsEvaluated: 600,
		}},
		{"eval_result_error", EvalResult{Tag: "bad/toy", Err: "serve: unknown macro \"bad\""}},
		{"sweep_request", SweepRequest{
			Macros: []string{"base", "macro-b"}, Networks: []string{"toy"},
			Scenarios: []string{"weight-stationary"}, Layers: 2, MaxMappings: 4,
			TimeoutSec: 30,
		}},
		{"sweep_request_explicit", SweepRequest{
			Requests: []EvalRequest{{Macro: "base", Network: "toy"}},
		}},
		{"sweep_response", SweepResponse{
			Results: []*EvalResult{{Tag: "base/toy", EnergyJ: 1e-3}},
			Table:   "| ... |",
			Cache:   CacheStats{Hits: 3, Misses: 1, Evictions: 0, Entries: 4, Restored: 2},
		}},
		{"macros_response", MacrosResponse{Macros: []MacroInfo{{
			Macro: "macro-b", Node: "7 nm", Device: "SRAM",
			InputBits: "8", WeightBits: "8", Array: "64x64", ADCBits: "4",
		}}}},
		{"networks_response", NetworksResponse{Networks: []NetworkInfo{{
			Name: "resnet18", Layers: 21, MACs: 1814073344,
		}}}},
		{"experiments_response", ExperimentsResponse{
			Experiments: []string{"fig2a", "fig15"},
			Definitions: []ExperimentInfo{{
				Name:        "fig15-scenarios",
				Description: "Macro-B full-system scenario grid",
				Source:      "sweep",
				File:        "fig15-scenarios.yaml",
				Requests:    6,
				Params: []ExperimentParam{
					{
						Name: "network", Type: "string",
						Description: "zoo network to sweep",
						Default:     "resnet18",
						Choices:     []string{"resnet18", "vit-base", "gpt2"},
					},
					{
						Name: "mappings", Type: "int",
						Description: "per-layer mapping budget",
						Default:     30, Min: f64(1), Max: f64(500),
					},
				},
			}},
		}},
		{"experiment_run_request", ExperimentRunRequest{Name: "fig2a", Fast: true, MaxMappings: 8, Seed: 3}},
		{"experiment_run_response", ExperimentRunResponse{Tables: []string{"| fig2a |"}}},
		{"named_experiment_request", NamedExperimentRequest{
			Params:     map[string]any{"mappings": 60, "network": "gpt2"},
			TimeoutSec: 30,
		}},
		{"healthz_response", HealthzResponse{
			Status:    "ok",
			Version:   Version,
			UptimeSec: 12.5,
			Cache:     CacheStats{Hits: 10, Misses: 2, Evictions: 1, Entries: 9, Restored: 4, Compiles: 6},
			Search: BudgetStats{Capacity: 8, Available: 3, SearchWorkers: 4,
				BlockedAcquires: 2, MappingsEvaluated: 1200},
			Persist: PersistStats{
				Enabled: true,
				Warm:    WarmStats{Engines: 1, Contexts: 2, Skipped: 1},
				Error:   "jobs dir: permission denied",
			},
			Obs: ObsStats{
				Spans: 42, SlowEntries: 8, SlowRecorded: 40, SlowThresholdSec: 0.25,
				DroppedLabelSets: 3, TokenReloads: 2, TokenReloadErrors: 1,
				SweepReloads: 3, SweepReloadErrors: 1,
			},
		}},
		{"slow_response", SlowResponse{
			Requests: []obs.SlowEntry{{
				Route:       "POST /v1/evaluate",
				Tag:         "macro-b/resnet18",
				Start:       created,
				DurationSec: 1.75,
				Phases: []obs.PhaseTiming{
					{Phase: "cache", Seconds: 0.05},
					{Phase: "compile", Seconds: 0.9},
					{Phase: "search", Seconds: 0.8},
				},
				Error: "context deadline exceeded",
			}},
			Recorded:     40,
			ThresholdSec: 0.25,
		}},
		{"error_with_details", Error{
			Code: CodeInvalidRequest, Message: "request body exceeds 64 bytes",
			Details: map[string]string{"max_bytes": "64"},
		}},
		{"error_unauthorized", Error{
			Code: CodeUnauthorized, Message: "unknown bearer token",
		}},
	}
}

// TestGoldenRoundTrip pins every wire type's serialization byte-for-byte
// and proves decoding a golden and re-encoding it is a fixed point (no
// field silently dropped on either direction).
func TestGoldenRoundTrip(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.MarshalIndent(tc.v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("serialized form drifted from golden %s:\n got: %s\nwant: %s", path, got, want)
			}

			// Decode the golden into a fresh value of the same type and
			// re-encode: the bytes must be a fixed point.
			fresh := newOfSameType(t, tc.v)
			if err := json.Unmarshal(want, fresh); err != nil {
				t.Fatalf("golden does not decode: %v", err)
			}
			again, err := json.MarshalIndent(fresh, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			again = append(again, '\n')
			if !bytes.Equal(again, want) {
				t.Errorf("decode/re-encode is not a fixed point:\n got: %s\nwant: %s", again, want)
			}
		})
	}
}

// newOfSameType returns a pointer to a fresh zero value of v's dynamic
// type, via a type switch so the test stays reflect-free and the
// compiler tracks the type list.
func newOfSameType(t *testing.T, v any) any {
	t.Helper()
	switch v.(type) {
	case EvalRequest:
		return new(EvalRequest)
	case EvalResult:
		return new(EvalResult)
	case SweepRequest:
		return new(SweepRequest)
	case SweepResponse:
		return new(SweepResponse)
	case MacrosResponse:
		return new(MacrosResponse)
	case NetworksResponse:
		return new(NetworksResponse)
	case ExperimentsResponse:
		return new(ExperimentsResponse)
	case ExperimentRunRequest:
		return new(ExperimentRunRequest)
	case ExperimentRunResponse:
		return new(ExperimentRunResponse)
	case NamedExperimentRequest:
		return new(NamedExperimentRequest)
	case HealthzResponse:
		return new(HealthzResponse)
	case SlowResponse:
		return new(SlowResponse)
	case Error:
		return new(Error)
	default:
		t.Fatalf("no fresh-type case for %T", v)
		return nil
	}
}

// TestErrorEnvelope pins the envelope's Go-error behavior the SDK and
// CLI rely on.
func TestErrorEnvelope(t *testing.T) {
	e := Errorf(CodeDeadlineExceeded, "sweep stopped after %d s", 8)
	e.HTTPStatus = 504
	if e.Error() != "deadline_exceeded (HTTP 504): sweep stopped after 8 s" {
		t.Fatalf("Error() = %q", e.Error())
	}
	if !IsCode(e, CodeDeadlineExceeded) || IsCode(e, CodeNotFound) {
		t.Fatal("IsCode misclassified")
	}
	if !IsCode(fmt.Errorf("wrapped: %w", e), CodeDeadlineExceeded) {
		t.Fatal("IsCode must see through wrapping")
	}
}
