package serve

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/sweepdef"
)

const testDefDoc = `name: unit-smoke
description: tiny grid for handler tests
params:
  - name: mappings
    type: int
    default: 2
    min: 1
    max: 10
axes:
  macros: [base]
  networks: [toy]
budgets:
  max_mappings: "{mappings}"
`

func testSweepSet(t *testing.T) *sweepdef.Set {
	t.Helper()
	def, err := sweepdef.Parse("unit-smoke.yaml", testDefDoc)
	if err != nil {
		t.Fatal(err)
	}
	set, err := sweepdef.NewSet([]*sweepdef.Definition{def})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestNamedExperimentRoundTrip(t *testing.T) {
	srv := NewServer(BatchOptions{SweepDefs: testSweepSet(t)})
	defer srv.Close()
	_, do := testClient(t, srv)

	// Listing surfaces the definition with its parameter schema even when
	// no built-in experiment runner is wired.
	status, out := do("GET", "/v1/experiments", "")
	if status != http.StatusOK {
		t.Fatalf("list: %d %v", status, out)
	}
	defs, ok := out["definitions"].([]any)
	if !ok || len(defs) != 1 {
		t.Fatalf("definitions = %v", out["definitions"])
	}
	info := defs[0].(map[string]any)
	if info["name"] != "unit-smoke" || info["source"] != "sweep" || info["requests"] != float64(1) {
		t.Fatalf("listing entry = %v", info)
	}
	if params, ok := info["params"].([]any); !ok || len(params) != 1 {
		t.Fatalf("parameter schema missing: %v", info["params"])
	}

	// An empty body runs the definition at its defaults.
	status, out = do("POST", "/v1/experiments/unit-smoke", "")
	if status != http.StatusOK {
		t.Fatalf("run at defaults: %d %v", status, out)
	}
	if results, ok := out["results"].([]any); !ok || len(results) != 1 {
		t.Fatalf("results = %v", out["results"])
	}
	if table, _ := out["table"].(string); !strings.Contains(table, "base") {
		t.Fatalf("table missing evaluated row: %q", out["table"])
	}

	// Parameter binding flows through to the compiled grid.
	status, out = do("POST", "/v1/experiments/unit-smoke", `{"params": {"mappings": 3}}`)
	if status != http.StatusOK {
		t.Fatalf("run bound: %d %v", status, out)
	}
}

func TestNamedExperimentErrors(t *testing.T) {
	srv := NewServer(BatchOptions{SweepDefs: testSweepSet(t)})
	defer srv.Close()
	srv.ExperimentNames = func() []string { return []string{"table-iii"} }
	_, do := testClient(t, srv)

	// Unknown name: 404 with the envelope.
	status, out := do("POST", "/v1/experiments/no-such", "")
	if code, _ := envelope(t, out); status != http.StatusNotFound || code != "not_found" {
		t.Fatalf("unknown: %d %v", status, out)
	}
	// A built-in experiment name is redirected, not silently shadowed.
	status, out = do("POST", "/v1/experiments/table-iii", "")
	if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "built-in") {
		t.Fatalf("builtin: %d %v", status, out)
	}
	// Out-of-range parameter: compile rejects, 400.
	status, out = do("POST", "/v1/experiments/unit-smoke", `{"params": {"mappings": 99}}`)
	if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "mappings") {
		t.Fatalf("range: %d %v", status, out)
	}
	// Undeclared parameter: bind rejects, 400.
	status, out = do("POST", "/v1/experiments/unit-smoke", `{"params": {"bogus": 1}}`)
	if code, _ := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("undeclared: %d %v", status, out)
	}
	// The removed priority field is an unknown one.
	status, out = do("POST", "/v1/experiments/unit-smoke", `{"priority": "interactive"}`)
	if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "priority") {
		t.Fatalf("priority: %d %v", status, out)
	}
}

func TestReloadSweepDefsKeepsOldSetOnError(t *testing.T) {
	srv := NewServer(BatchOptions{SweepDefs: testSweepSet(t)})
	defer srv.Close()

	// An empty set is refused and the old set stays live.
	empty, err := sweepdef.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadSweepDefs(empty); err == nil {
		t.Fatal("empty reload succeeded, want error")
	}
	if names := srv.SweepDefNames(); len(names) != 1 || names[0] != "unit-smoke" {
		t.Fatalf("names after failed reload = %v", names)
	}

	// A definition shadowing a built-in experiment name is refused.
	srv.ExperimentNames = func() []string { return []string{"unit-smoke"} }
	if err := srv.ReloadSweepDefs(testSweepSet(t)); err == nil || !strings.Contains(err.Error(), "shadows") {
		t.Fatalf("shadowing reload error = %v", err)
	}

	// Both refusals are counted as reload errors in /healthz (boot
	// registration via BatchOptions bypasses the counter).
	stats := srv.ObsStats()
	if stats.SweepReloadErrors != 2 {
		t.Fatalf("SweepReloadErrors = %d, want 2", stats.SweepReloadErrors)
	}
}
