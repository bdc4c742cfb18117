package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/serve/jobs"
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
	srv := NewServer(BatchOptions{})
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
	// The removed priority field is refused, not silently ignored, on
	// every sweep-shaped body.
	for _, path := range []string{"/v1/sweep", "/v1/jobs"} {
		status, out = do("POST", path, `{"macros": ["base"], "networks": ["toy"], "max_mappings": 2, "priority": "interactive"}`)
		if code, msg := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" || !strings.Contains(msg, "priority") {
			t.Fatalf("removed priority field on %s: %d %v", path, status, out)
		}
	}
	// Unknown job ID.
	status, out = do("GET", "/v1/jobs/job-999999", "")
	if code, _ := envelope(t, out); status != http.StatusNotFound || code != "not_found" {
		t.Fatalf("unknown job: %d %v", status, out)
	}
	// Bad query parameters.
	status, out = do("GET", "/v1/jobs?status=bogus", "")
	if code, _ := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("bad status filter: %d %v", status, out)
	}
	status, out = do("GET", "/v1/jobs?limit=-3", "")
	if code, _ := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("bad limit: %d %v", status, out)
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
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs", nil)
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

// TestErrorEnvelopeQueueFull429: the backpressure response carries the
// hint twice — Retry-After header for generic HTTP clients,
// retry_after_sec in the envelope for contract clients.
func TestErrorEnvelopeQueueFull429(t *testing.T) {
	srv := NewServer(BatchOptions{
		MaxRunningJobs: 1, MaxQueuedJobs: 1, JobRetryAfter: 3 * time.Second,
	})
	defer srv.Close()
	ts, _ := testClient(t, srv)

	runningID, release := blockingJob(t, srv)
	defer release()
	waitRunning(t, srv, runningID)
	_, releaseQueued := blockingJob(t, srv)
	defer releaseQueued()

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"macros": ["base"], "networks": ["toy"], "max_mappings": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	var out map[string]any
	if err := jsonDecode(resp, &out); err != nil {
		t.Fatal(err)
	}
	if code, _ := envelope(t, out); code != "queue_full" {
		t.Fatalf("429 envelope: %v", out)
	}
	if sec, _ := out["retry_after_sec"].(float64); sec != 3 {
		t.Fatalf("retry_after_sec: %v", out)
	}
}

// TestErrorEnvelopeShutdownAndPanic: a draining server answers
// shutting_down; a handler panic becomes a 500 internal envelope, not a
// severed connection.
func TestErrorEnvelopeShutdownAndPanic(t *testing.T) {
	srv := NewServer(BatchOptions{})
	_, do := testClient(t, srv)
	srv.Close()
	status, out := do("POST", "/v1/jobs", `{"macros": ["base"], "networks": ["toy"]}`)
	if code, _ := envelope(t, out); status != http.StatusServiceUnavailable || code != "shutting_down" {
		t.Fatalf("submit after close: %d %v", status, out)
	}

	srv2 := NewServer(BatchOptions{})
	defer srv2.Close()
	srv2.RunExperiment = func(name string, fast bool, mm int, seed int64) ([]*report.Table, error) {
		panic("experiment runner exploded")
	}
	_, do2 := testClient(t, srv2)
	status, out = do2("POST", "/v1/experiments", `{"name": "fig2a"}`)
	if code, msg := envelope(t, out); status != http.StatusInternalServerError || code != "internal" || strings.Contains(msg, "exploded") {
		// The panic value must NOT leak to the client.
		t.Fatalf("panic recovery: %d %v", status, out)
	}
}

// TestJobListPaginationHTTP drives ?status/?limit/?cursor end to end.
func TestJobListPaginationHTTP(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, AsyncThreshold: -1})
	defer srv.Close()
	_, do := testClient(t, srv)

	for i := 0; i < 3; i++ {
		status, out := do("POST", "/v1/jobs", `{"macros": ["base"], "networks": ["toy"], "max_mappings": 1, "layers": 1}`)
		id := acceptedJobID(t, status, out)
		pollJob(t, do, id)
	}
	status, out := do("GET", "/v1/jobs?limit=2", "")
	if status != http.StatusOK {
		t.Fatalf("list: %d %v", status, out)
	}
	page, _ := out["jobs"].([]any)
	if len(page) != 2 {
		t.Fatalf("page size %d: %v", len(page), out)
	}
	next, _ := out["next_cursor"].(string)
	if next != "job-000002" {
		t.Fatalf("next_cursor %q", next)
	}
	status, out = do("GET", "/v1/jobs?limit=2&cursor="+next, "")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	page2, _ := out["jobs"].([]any)
	if len(page2) != 1 {
		t.Fatalf("page2 %v", out)
	}
	if first, _ := page2[0].(map[string]any); first["id"] != "job-000003" {
		t.Fatalf("page2 first %v", page2)
	}
	if out["next_cursor"] != nil {
		t.Fatalf("exhausted listing still pages: %v", out)
	}
	// Status filter composes.
	status, out = do("GET", "/v1/jobs?status=succeeded", "")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	if succeeded, _ := out["jobs"].([]any); len(succeeded) != 3 {
		t.Fatalf("succeeded filter: %v", out)
	}
	if status, _ = do("GET", "/v1/jobs?status=queued", ""); status != http.StatusOK {
		t.Fatal(status)
	}
}

// awaitDispatched blocks until job id has left the queue (running or
// terminal) and returns that snapshot.
func awaitDispatched(t *testing.T, srv *Server, id string) jobs.Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var version int64
	for {
		snap, err := srv.AwaitJob(ctx, id, version)
		if err != nil {
			t.Fatalf("job %s never dispatched: %v", id, err)
		}
		if snap.Status != jobs.StatusQueued {
			return snap
		}
		version = snap.Version
	}
}

// TestHTTPFIFOOrdering is the acceptance check on the wire: with the
// single runner busy, jobs submitted over HTTP dispatch in submission
// order — when the later job leaves the queue, the earlier one has
// already finished.
func TestHTTPFIFOOrdering(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, AsyncThreshold: -1})
	defer srv.Close()
	_, do := testClient(t, srv)

	// Occupy the single job runner so both submissions queue.
	runningID, release := blockingJob(t, srv)
	waitRunning(t, srv, runningID)

	status, out := do("POST", "/v1/jobs",
		`{"macros": ["base", "macro-b"], "networks": ["toy"], "max_mappings": 2}`)
	firstID := acceptedJobID(t, status, out)
	status, out = do("POST", "/v1/jobs",
		`{"macros": ["base"], "networks": ["toy"], "max_mappings": 1, "layers": 1}`)
	secondID := acceptedJobID(t, status, out)
	_, list := do("GET", "/v1/jobs?status=queued", "")
	if queued, _ := list["jobs"].([]any); len(queued) != 2 {
		t.Fatalf("want both jobs queued: %v", list)
	}

	release()
	awaitDispatched(t, srv, secondID)
	if first, _ := srv.Job(firstID); first.Status != jobs.StatusSucceeded {
		t.Fatalf("second job dispatched while the first was %s: FIFO broken", first.Status)
	}
	if final := pollJob(t, do, secondID); final["status"] != "succeeded" {
		t.Fatalf("second job: %v", final)
	}
}

// TestWALReplayPreservesFIFOOrder: a restart replays interrupted jobs in
// their original submission order.
func TestWALReplayPreservesFIFOOrder(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, JobsDir: dir, MaxRunningJobs: 1})
	// A deep grid occupies the runner; two small jobs queue behind it.
	// Close interrupts all three.
	big := Grid([]string{"base", "macro-b"}, []string{"mobilenetv3-large"}, nil, 0, 8)
	bigSnap, err := first.SubmitSweepOpts(big, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := []Request{{Macro: "base", Network: "toy", MaxMappings: 1, Layers: 1}}
	aSnap, err := first.SubmitSweepOpts(small, SweepJobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bSnap, err := first.SubmitSweepOpts(small, SweepJobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir, MaxRunningJobs: 1})
	defer second.Close()
	if ps := second.PersistStats(); ps.Warm.Replayed != 3 {
		t.Fatalf("warm stats %+v, want 3 replayed", ps.Warm)
	}
	// The replayed deep grid runs first again; cancelling it lets the
	// two small jobs through in their original order.
	second.CancelJob(bigSnap.ID)
	awaitDispatched(t, second, bSnap.ID)
	if a, _ := second.Job(aSnap.ID); a.Status != jobs.StatusSucceeded {
		t.Fatalf("replayed %s dispatched while %s was %s: FIFO broken", bSnap.ID, aSnap.ID, a.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if got, err := second.WaitJob(ctx, bSnap.ID); err != nil || got.Status != jobs.StatusSucceeded {
		t.Fatalf("replayed %s: %+v %v", bSnap.ID, got, err)
	}
}
