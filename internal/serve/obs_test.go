package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve/api"
)

// rawGet fetches a path as plain text (the JSON-decoding helpers can't
// read /metrics), with an optional bearer token.
func rawGet(t *testing.T, ts *httptest.Server, path, token string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestMetricsExposition drives a sweep end to end on an authenticated
// server and asserts the Prometheus exposition carries the
// acceptance-critical series: the search-phase and evaluate latency
// histograms, cache counters, and HTTP route counters — all scraped
// without credentials (/metrics is auth-exempt).
func TestMetricsExposition(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, Token: testToken})
	defer srv.Close()
	ts, do := authClient(t, srv)

	sweep(t, do, testToken,
		`{"macros": ["base", "macro-b"], "networks": ["toy"], "max_mappings": 2}`)
	// One unroutable (but authenticated) request: must show up under the
	// bounded "unmatched" route label, not its raw path.
	if status, _, _ := rawGet(t, ts, "/no/such/path", testToken); status != http.StatusNotFound {
		t.Fatalf("bogus path: %d, want 404", status)
	}

	status, text, hdr := rawGet(t, ts, "/metrics", "") // no token: scrape stays open
	if status != http.StatusOK {
		t.Fatalf("GET /metrics without token: %d, want 200", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	for _, want := range []string{
		"# TYPE cimloop_http_requests_total counter",
		`cimloop_http_requests_total{route="POST /v1/sweep",code="200"} 1`,
		`cimloop_http_requests_total{route="unmatched",code="404"} 1`,
		`cimloop_request_phase_seconds_count{phase="search"}`,
		`cimloop_request_phase_seconds_count{phase="compile"}`,
		"cimloop_evaluate_seconds_bucket{le=",
		"cimloop_evaluate_seconds_count",
		"cimloop_cache_compiles_total",
		"cimloop_cache_hits_total",
		"cimloop_uptime_seconds",
		"cimloop_spans_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestMetricsPrepareMemo: the prepare memo's lookups and fills are
// exported per entry kind. The same macro and network under a system
// scenario is a new cache key whose layer preparations all hit the memo:
// lookups rise, fills do not.
func TestMetricsPrepareMemo(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// counts scrapes the lookups and fills of each entry kind.
	counts := func() map[string]float64 {
		t.Helper()
		_, text, _ := rawGet(t, ts, "/metrics", "")
		out := map[string]float64{}
		for _, series := range []string{"lookups", "fills"} {
			for _, kind := range []string{"operand", "sum"} {
				name := fmt.Sprintf(`cimloop_prepare_memo_%s_total{kind="%s"}`, series, kind)
				i := strings.Index(text, name+" ")
				if i < 0 {
					t.Fatalf("exposition missing %s:\n%s", name, text)
				}
				line, _, _ := strings.Cut(text[i+len(name)+1:], "\n")
				v, err := strconv.ParseFloat(line, 64)
				if err != nil {
					t.Fatal(err)
				}
				out[series+"/"+kind] = v
			}
		}
		return out
	}

	req := Request{Macro: "macro-b", Network: "toy", MaxMappings: 4}
	if _, err := srv.EvaluateCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	cold := counts()
	for _, k := range []string{"operand", "sum"} {
		if cold["fills/"+k] == 0 || cold["lookups/"+k] < cold["fills/"+k] {
			t.Fatalf("%s entries after a cold evaluate: %v", k, cold)
		}
	}
	req.Scenario = "weight-stationary"
	if _, err := srv.EvaluateCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	warm := counts()
	for _, k := range []string{"operand", "sum"} {
		if warm["lookups/"+k] <= cold["lookups/"+k] || warm["fills/"+k] != cold["fills/"+k] {
			t.Fatalf("%s entries: %v after the cold evaluate, %v after the scenario", k, cold, warm)
		}
	}
}

// TestSlowLogCapturesSweepPhases pins the acceptance criterion: a sweep
// produces per-item spans whose queue, compile, and search phase
// timings are visible (non-zero) in /v1/debug/slow. The slow endpoint
// itself stays behind auth — request tags and errors are operator data.
func TestSlowLogCapturesSweepPhases(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, Token: testToken})
	defer srv.Close()
	ts, do := authClient(t, srv)

	sweep(t, do, testToken,
		`{"macros": ["base", "macro-b"], "networks": ["toy"], "max_mappings": 2}`)

	if status, _, _ := rawGet(t, ts, "/v1/debug/slow", ""); status != http.StatusUnauthorized {
		t.Fatalf("slow log without token: %d, want 401", status)
	}
	status, body, _ := rawGet(t, ts, "/v1/debug/slow", testToken)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/debug/slow: %d %s", status, body)
	}
	var out api.SlowResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Recorded == 0 || len(out.Requests) == 0 {
		t.Fatalf("slow log empty after a sweep: %+v", out)
	}

	phase := func(e obs.SlowEntry, name string) (float64, bool) {
		for _, p := range e.Phases {
			if p.Phase == name {
				return p.Seconds, true
			}
		}
		return 0, false
	}
	var items int
	var sawQueued, sawCompiled, sawSearched bool
	for _, e := range out.Requests {
		if e.Route != "sweep-item" {
			continue
		}
		items++
		if v, ok := phase(e, "queue"); ok && v > 0 {
			sawQueued = true
		}
		if v, ok := phase(e, "compile"); ok && v > 0 {
			sawCompiled = true
		}
		if v, ok := phase(e, "search"); ok && v > 0 {
			sawSearched = true
		}
	}
	if items < 2 {
		t.Fatalf("want >= 2 sweep-item entries, got %d: %+v", items, out.Requests)
	}
	if !sawQueued || !sawCompiled || !sawSearched {
		t.Fatalf("sweep items must show non-zero queue/compile/search "+
			"(queue=%v compile=%v search=%v): %+v",
			sawQueued, sawCompiled, sawSearched, out.Requests)
	}
	// The HTTP span for the sweep is there too, labeled by route pattern.
	var sawSweep bool
	for _, e := range out.Requests {
		sawSweep = sawSweep || e.Route == "POST /v1/sweep"
	}
	if !sawSweep {
		t.Fatalf("missing the POST /v1/sweep span: %+v", out.Requests)
	}

	// ?limit truncates; a garbage limit is a 400 envelope.
	status, body, _ = rawGet(t, ts, "/v1/debug/slow?limit=1", testToken)
	var limited api.SlowResponse
	if err := json.Unmarshal([]byte(body), &limited); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || len(limited.Requests) != 1 {
		t.Fatalf("limit=1: %d with %d entries", status, len(limited.Requests))
	}
	if status, body, _ = rawGet(t, ts, "/v1/debug/slow?limit=zero", testToken); status != http.StatusBadRequest {
		t.Fatalf("limit=zero: %d %s, want 400", status, body)
	}
}

// TestHealthzObsView pins /healthz as a view of the registry: the obs
// section reports the same span and slow-log counters the instruments
// hold, and the numbers move when requests happen.
func TestHealthzObsView(t *testing.T) {
	srv := NewServer(BatchOptions{MaxMappings: 2})
	defer srv.Close()
	_, do := testClient(t, srv)

	do("POST", "/v1/evaluate", `{"macro": "base", "network": "toy", "max_mappings": 2}`)
	_, health := do("GET", "/healthz", "")
	ob, ok := health["obs"].(map[string]any)
	if !ok {
		t.Fatalf("healthz must expose an obs section: %v", health)
	}
	spans, _ := ob["spans"].(float64)
	recorded, _ := ob["slow_recorded"].(float64)
	if spans < 1 || recorded < 1 {
		t.Fatalf("obs counters must move after a request: %v", ob)
	}
	st := srv.ObsStats()
	if int64(spans) != st.Spans || uint64(recorded) != st.SlowRecorded {
		t.Fatalf("healthz obs (%v) drifted from ObsStats (%+v)", ob, st)
	}
}

// TestReloadToken covers the SIGHUP rotation contract: a valid new
// token swaps atomically (old token out, new token in), every invalid
// reload keeps the old token in force, and both outcomes are counted.
func TestReloadToken(t *testing.T) {
	srv := NewServer(BatchOptions{Token: testToken})
	defer srv.Close()
	ts, do := authClient(t, srv)

	if status, _, out := do(testToken, "GET", "/v1/macros", ""); status != http.StatusOK {
		t.Fatalf("baseline auth: %d %v", status, out)
	}
	if err := srv.ReloadToken("rotated-a"); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := do(testToken, "GET", "/v1/macros", ""); status != http.StatusUnauthorized {
		t.Fatalf("old token after rotation: %d, want 401", status)
	}
	if status, _, _ := do("rotated-a", "GET", "/v1/macros", ""); status != http.StatusOK {
		t.Fatalf("rotated token: %d, want 200", status)
	}

	// An empty token must be refused — rotating to "no token" would
	// silently open the server — and so must an empty token file, with
	// the old token kept.
	if err := srv.ReloadToken(""); err == nil {
		t.Fatal("reloading an empty token must fail")
	}
	if err := srv.ReloadTokenFile(writeFile(t, "token", "\n")); err == nil {
		t.Fatal("reloading an empty token file must fail")
	}
	if status, _, _ := do("rotated-a", "GET", "/v1/macros", ""); status != http.StatusOK {
		t.Fatal("failed reloads must keep the previous token serving")
	}
	// A good file swaps.
	if err := srv.ReloadTokenFile(writeFile(t, "token", "secret-c\n")); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := do("secret-c", "GET", "/v1/macros", ""); status != http.StatusOK {
		t.Fatal("file reload must admit the new token")
	}

	st := srv.ObsStats()
	if st.TokenReloads != 2 || st.TokenReloadErrors != 2 {
		t.Fatalf("reload counters = %d ok / %d error, want 2/2", st.TokenReloads, st.TokenReloadErrors)
	}
	_, text, _ := rawGet(t, ts, "/metrics", "")
	for _, want := range []string{
		`cimloop_token_reloads_total{result="ok"} 2`,
		`cimloop_token_reloads_total{result="error"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// An open server cannot be locked down retroactively: its handler
	// chain was built without the auth middleware.
	open := NewServer(BatchOptions{})
	defer open.Close()
	if err := open.ReloadToken(testToken); err == nil {
		t.Fatal("enabling auth on a running open server must fail")
	}
}

// TestDebugHandler pins the pprof split: the opt-in debug handler
// serves profiles (plus /metrics and /healthz for convenience), and the
// public API handler refuses /debug/pprof/ outright.
func TestDebugHandler(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()

	dbg := httptest.NewServer(srv.DebugHandler())
	defer dbg.Close()
	status, body, _ := rawGet(t, dbg, "/debug/pprof/", "")
	if status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index on debug listener: %d", status)
	}
	if status, body, _ = rawGet(t, dbg, "/metrics", ""); status != http.StatusOK ||
		!strings.Contains(body, "cimloop_uptime_seconds") {
		t.Fatalf("debug /metrics: %d", status)
	}
	if status, _, _ = rawGet(t, dbg, "/healthz", ""); status != http.StatusOK {
		t.Fatalf("debug /healthz: %d", status)
	}

	pub := httptest.NewServer(srv.Handler())
	defer pub.Close()
	if status, _, _ = rawGet(t, pub, "/debug/pprof/", ""); status == http.StatusOK {
		t.Fatal("pprof must never be reachable on the public listener")
	}
}
