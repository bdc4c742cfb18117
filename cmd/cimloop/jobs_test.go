package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cimloop "repro"
	"repro/internal/client"
)

// jobsTestServer runs the real batch service behind httptest and returns
// its base URL.
func jobsTestServer(t *testing.T, opts cimloop.BatchOptions) string {
	t.Helper()
	srv := cimloop.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

func TestJobsSubmitWaitLifecycle(t *testing.T) {
	url := jobsTestServer(t, cimloop.BatchOptions{Workers: 2})
	if err := run([]string{"jobs", "submit",
		"-addr", url,
		"-macros", "base,macro-b", "-networks", "toy",
		"-mappings", "2",
		"-wait"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"jobs", "list", "-addr", url}); err != nil {
		t.Fatal(err)
	}
	// The polling fallback reaches the same terminal state.
	if err := run([]string{"jobs", "wait", "job-000001", "-addr", url, "-poll"}); err != nil {
		t.Fatal(err)
	}
	// Filtered listing round-trips through the typed query parameters.
	if err := run([]string{"jobs", "list", "-addr", url, "-status", "succeeded", "-limit", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestJobsStatusAndCancel(t *testing.T) {
	url := jobsTestServer(t, cimloop.BatchOptions{Workers: 1})
	// A heavyweight grid so the cancel lands while the job is live.
	if err := run([]string{"jobs", "submit",
		"-addr", url,
		"-macros", "base,macro-a,macro-b,macro-d", "-networks", "resnet18",
		"-mappings", "400"}); err != nil {
		t.Fatal(err)
	}
	// IDs are monotonic from job-000001.
	if err := run([]string{"jobs", "status", "job-000001", "-addr", url}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"jobs", "cancel", "job-000001", "-addr", url}); err != nil {
		t.Fatal(err)
	}
	// Waiting on a cancelled job is a non-zero exit naming the state.
	err := run([]string{"jobs", "wait", "job-000001", "-addr", url})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("wait on cancelled job: %v", err)
	}
}

// TestWaitAndPrintEvictionMessage drives waitAndPrint against a stub
// that shows the job running once and then 404s — the retention-eviction
// race — and checks the error names the condition instead of the ID. The
// stub has no SSE endpoint, which also exercises the poll fallback.
func TestWaitAndPrintEvictionMessage(t *testing.T) {
	polls := 0
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if strings.HasSuffix(r.URL.Path, "/events") {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"code": "not_found", "message": "no route"}`)
			return
		}
		polls++
		if polls == 1 {
			fmt.Fprint(w, `{"id": "job-000001", "status": "running", "version": 2, "completed": 0, "total": 1}`)
			return
		}
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"code": "not_found", "message": "unknown job \"job-000001\""}`)
	}))
	defer stub.Close()
	err := waitAndPrint(client.New(stub.URL), "job-000001", time.Second, true)
	if err == nil || !strings.Contains(err.Error(), "evicted from retention") {
		t.Fatalf("err = %v, want eviction message", err)
	}
	// A job that 404s on the very first poll is a plain unknown-job error.
	err = waitAndPrint(client.New(stub.URL), "job-000002", time.Second, true)
	if err == nil || strings.Contains(err.Error(), "evicted") {
		t.Fatalf("first-poll 404: %v", err)
	}
}

func TestJobsWaitNamesRetentionEviction(t *testing.T) {
	url := jobsTestServer(t, cimloop.BatchOptions{Workers: 1, JobRetention: 1})
	// Job 1 finishes, then job 2 finishes and evicts it.
	for i := 0; i < 2; i++ {
		if err := run([]string{"jobs", "submit", "-addr", url,
			"-macros", "base", "-networks", "toy", "-mappings", "1",
			"-wait"}); err != nil {
			t.Fatal(err)
		}
	}
	// Plain status on the evicted job is an ordinary 404.
	if err := run([]string{"jobs", "status", "job-000001", "-addr", url}); err == nil {
		t.Fatal("status on evicted job: want error")
	}
}

func TestJobsErrors(t *testing.T) {
	url := jobsTestServer(t, cimloop.BatchOptions{})
	cases := [][]string{
		{"jobs"},
		{"jobs", "bogus"},
		{"jobs", "status"},
		{"jobs", "wait"},
		{"jobs", "cancel"},
		{"jobs", "submit", "-addr", url}, // no grid
		{"jobs", "submit", "-addr", url, "-macros", "base", "-networks", "toy", "-priority", "batch"}, // removed flag
		{"jobs", "status", "job-999999", "-addr", url},                                                // 404
		{"jobs", "cancel", "job-999999", "-addr", url},                                                // 404
		{"jobs", "submit", "-addr", url, "-no-such-flag"},                                             // bad flag
		{"jobs", "status", "job-000001", "-addr", "127.0.0.1:1"},                                      // nothing listening
	}
	for _, c := range cases {
		if err := run(c); err == nil {
			t.Errorf("run(%v): want error", c)
		}
	}
}
