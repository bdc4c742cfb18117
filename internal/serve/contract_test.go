package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/report"
)

// jsonDecode decodes a raw response body (for tests that need headers
// and body together, which the do() helper hides).
func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// These tests pin the v1 contract's error surface: every failure path —
// including the ones net/http would answer itself — speaks the
// api.Error envelope as application/json with a stable code.

// envelope pulls the code/message fields out of a decoded error body.
func envelope(t *testing.T, out map[string]any) (code, message string) {
	t.Helper()
	code, _ = out["code"].(string)
	message, _ = out["message"].(string)
	if code == "" {
		t.Fatalf("response is not an error envelope: %v", out)
	}
	return code, message
}

func TestErrorEnvelopeMalformedAndUnknown(t *testing.T) {
	srv := NewServer(BatchOptions{SweepDefs: testSweepSet(t)})
	defer srv.Close()
	_, do := testClient(t, srv)

	// Malformed JSON.
	status, out := do("POST", "/v1/evaluate", `{"macro": `)
	if code, _ := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("malformed body: %d %v", status, out)
	}
	// Unknown field (typo protection).
	status, out = do("POST", "/v1/evaluate", `{"unknown_field": 1}`)
	if code, _ := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("unknown field: %d %v", status, out)
	}
	// A removed field is an unknown one, named in the message.
	status, out = do("POST", "/v1/evaluate", `{"macro": "base", "network": "toy", "max_mappings": 2, "sample_shards": 2}`)
	if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "sample_shards") {
		t.Fatalf("removed sample_shards field: %d %v", status, out)
	}
	// Semantically invalid request.
	status, out = do("POST", "/v1/evaluate", `{"macro": "no-such", "network": "toy"}`)
	if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "no-such") {
		t.Fatalf("bad macro: %d %v", status, out)
	}
	// The removed priority field is refused, not silently ignored.
	status, out = do("POST", "/v1/sweep", `{"macros": ["base"], "networks": ["toy"], "max_mappings": 2, "priority": "interactive"}`)
	if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "priority") {
		t.Fatalf("removed priority field: %d %v", status, out)
	}
	// So is the removed async field, on both sweep-shaped bodies.
	for path, body := range map[string]string{
		"/v1/sweep":                  `{"macros": ["base"], "networks": ["toy"], "max_mappings": 2, "async": true}`,
		"/v1/experiments/unit-smoke": `{"async": true}`,
	} {
		status, out = do("POST", path, body)
		if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "async") {
			t.Fatalf("removed async field on %s: %d %v", path, status, out)
		}
	}
}

// TestHTTPJobNotFound: the removed job routes are unknown ones, answered
// with the 404 not_found envelope.
func TestHTTPJobNotFound(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	_, do := testClient(t, srv)
	for _, r := range [][2]string{{"POST", "/v1/jobs"}, {"GET", "/v1/jobs/x"}, {"POST", "/v1/jobs/x/cancel"}} {
		status, out := do(r[0], r[1], `{"macros": ["base"], "networks": ["toy"]}`)
		if code, _ := envelope(t, out); status != http.StatusNotFound || code != "not_found" {
			t.Fatalf("removed route %s %s: %d %v", r[0], r[1], status, out)
		}
	}
}

// TestSweepAnySizeIsSynchronous: a grid of any size answers 200 with
// every result; no size hands it off elsewhere.
func TestSweepAnySizeIsSynchronous(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	_, do := testClient(t, srv)

	status, out := do("POST", "/v1/sweep", `{"macros": ["base", "macro-a", "macro-b", "macro-c", "macro-d"],
		"networks": ["toy", "resnet18", "mobilenetv3-large", "vit-base"], "layers": 1, "max_mappings": 1}`)
	if status != http.StatusOK {
		t.Fatalf("20-item grid: %d %v", status, out)
	}
	if results, _ := out["results"].([]any); len(results) != 20 {
		t.Fatalf("20-item grid answered %d results: %v", len(results), out)
	}
}

// TestErrorEnvelopeRoutes404And405: the wrapped mux never answers
// net/http's plain text.
func TestErrorEnvelopeRoutes404And405(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	ts, _ := testClient(t, srv)

	resp, err := ts.Client().Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("404 Content-Type %q", ct)
	}
	var out map[string]any
	if err := jsonDecode(resp, &out); err != nil {
		t.Fatalf("404 body is not JSON: %v", err)
	}
	if code, msg := envelope(t, out); code != "not_found" || !strings.Contains(msg, "/no/such/route") {
		t.Fatalf("404 envelope: %v", out)
	}

	// Wrong method on a known route.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweep", nil)
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("405 Content-Type %q", ct)
	}
	var out2 map[string]any
	if err := jsonDecode(resp2, &out2); err != nil {
		t.Fatalf("405 body is not JSON: %v", err)
	}
	if code, _ := envelope(t, out2); code != "method_not_allowed" {
		t.Fatalf("405 envelope: %v", out2)
	}
	if details, _ := out2["details"].(map[string]any); details["allow"] == "" {
		t.Fatalf("405 must name the allowed methods: %v", out2)
	}
}

// TestErrorEnvelopeOversizedBody: the configurable body bound answers
// 413 with the envelope instead of decoding unbounded input.
func TestErrorEnvelopeOversizedBody(t *testing.T) {
	srv := NewServer(BatchOptions{MaxBodyBytes: 128})
	defer srv.Close()
	_, do := testClient(t, srv)

	big := fmt.Sprintf(`{"macro": "base", "network": "toy", "tag": %q}`, strings.Repeat("x", 4096))
	status, out := do("POST", "/v1/evaluate", big)
	code, msg := envelope(t, out)
	if status != http.StatusRequestEntityTooLarge || code != "invalid_request" {
		t.Fatalf("oversized: %d %v", status, out)
	}
	if !strings.Contains(msg, "128") {
		t.Fatalf("message must name the bound: %q", msg)
	}
	if details, _ := out["details"].(map[string]any); details["max_bytes"] != "128" {
		t.Fatalf("details: %v", out)
	}
	// Under the bound the same endpoint still works.
	if status, out := do("POST", "/v1/evaluate", `{"macro": "base", "network": "toy"}`); status != http.StatusOK {
		t.Fatalf("small body: %d %v", status, out)
	}
}

// TestErrorEnvelopePanic: a handler panic becomes a 500 internal
// envelope, not a severed connection.
func TestErrorEnvelopePanic(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	srv.RunExperiment = func(name string, fast bool, mm int, seed int64) ([]*report.Table, error) {
		panic("experiment runner exploded")
	}
	_, do := testClient(t, srv)
	status, out := do("POST", "/v1/experiments", `{"name": "fig2a"}`)
	if code, msg := envelope(t, out); status != http.StatusInternalServerError || code != "internal" || strings.Contains(msg, "exploded") {
		// The panic value must NOT leak to the client.
		t.Fatalf("panic recovery: %d %v", status, out)
	}
}
