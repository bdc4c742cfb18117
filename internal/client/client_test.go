package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/jobs"
)

// liveServer runs the real serving stack behind httptest.
func liveServer(t *testing.T, opts serve.BatchOptions) (*serve.Server, *Client) {
	t.Helper()
	srv := serve.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, New(ts.URL)
}

func TestClientTypedRoundTrips(t *testing.T) {
	_, c := liveServer(t, serve.BatchOptions{Workers: 2, AsyncThreshold: -1})
	ctx := context.Background()

	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v %v", h, err)
	}
	res, err := c.Evaluate(ctx, api.EvalRequest{Macro: "macro-b", Network: "toy", MaxMappings: 2})
	if err != nil || res.EnergyJ <= 0 || res.Network != "toy" {
		t.Fatalf("evaluate: %+v %v", res, err)
	}
	sweep, acc, err := c.Sweep(ctx, api.SweepRequest{
		Macros: []string{"base", "macro-b"}, Networks: []string{"toy"}, MaxMappings: 2,
	})
	if err != nil || acc != nil || sweep == nil || len(sweep.Results) != 2 {
		t.Fatalf("sync sweep: %+v %+v %v", sweep, acc, err)
	}
	if sweep.Table == "" || sweep.Cache.Misses == 0 {
		t.Fatalf("sweep extras: %+v", sweep)
	}
	// Async opt-in flips the same call to a job handoff.
	sweep2, acc2, err := c.Sweep(ctx, api.SweepRequest{
		Macros: []string{"base"}, Networks: []string{"toy"}, MaxMappings: 2, Async: true,
	})
	if err != nil || sweep2 != nil || acc2 == nil {
		t.Fatalf("async sweep: %+v %+v %v", sweep2, acc2, err)
	}
	if acc2.Job.Status != jobs.StatusQueued || acc2.EventsURL == "" {
		t.Fatalf("accepted: %+v", acc2)
	}
	final, err := c.WaitJob(ctx, acc2.Job.ID, WaitOptions{})
	if err != nil || final.Status != jobs.StatusSucceeded {
		t.Fatalf("wait: %+v %v", final, err)
	}

	list, err := c.Jobs(ctx, api.JobListQuery{Status: jobs.StatusSucceeded, Limit: 10})
	if err != nil || len(list.Jobs) != 1 {
		t.Fatalf("list: %+v %v", list, err)
	}
	m, err := c.Macros(ctx)
	if err != nil || len(m.Macros) == 0 {
		t.Fatalf("macros: %v %v", m, err)
	}
	n, err := c.Networks(ctx)
	if err != nil || len(n.Networks) == 0 {
		t.Fatalf("networks: %v %v", n, err)
	}
}

// TestClientErrorEnvelope: non-2xx responses decode into *api.Error with
// the transport status attached.
func TestClientErrorEnvelope(t *testing.T) {
	_, c := liveServer(t, serve.BatchOptions{})
	_, err := c.Job(context.Background(), "job-999999")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T %v", err, err)
	}
	if apiErr.Code != api.CodeNotFound || apiErr.HTTPStatus != http.StatusNotFound {
		t.Fatalf("envelope: %+v", apiErr)
	}
	if !api.IsCode(err, api.CodeNotFound) {
		t.Fatal("IsCode")
	}
	// Unknown routes are envelopes too (the middleware), so the SDK's
	// error surface is uniform.
	if err := c.do(context.Background(), http.MethodGet, "/nope", nil, nil); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("route 404: %v", err)
	}
}

// TestClientRetryHonorsRetryAfter: queue_full responses are retried with
// the server's hint, and the submission eventually lands.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"code": "queue_full", "message": "full", "retry_after_sec": 7}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"job": {"id": "job-000001", "status": "queued", "version": 1}, "status_url": "/v1/jobs/job-000001", "events_url": "/v1/jobs/job-000001/events"}`)
	}))
	defer stub.Close()

	c := New(stub.URL)
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	acc, err := c.SubmitJob(context.Background(), api.SweepRequest{Macros: []string{"base"}, Networks: []string{"toy"}})
	if err != nil || acc.Job.ID != "job-000001" {
		t.Fatalf("submit: %+v %v", acc, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	if len(slept) != 2 || slept[0] != 7*time.Second || slept[1] != 7*time.Second {
		t.Fatalf("backoffs %v, want the server's 7s hint", slept)
	}

	// Exhausted retries surface the envelope.
	calls.Store(-100)
	c2 := New(stub.URL, WithMaxRetries(1))
	c2.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	_, err = c2.SubmitJob(context.Background(), api.SweepRequest{Macros: []string{"base"}})
	if !api.IsCode(err, api.CodeQueueFull) {
		t.Fatalf("exhausted: %v", err)
	}
}

// TestWaitJobStreamsSSE: against the real server, WaitJob carries the
// wait over SSE (transport callback proves it) and returns the terminal
// snapshot with its payloads.
func TestWaitJobStreamsSSE(t *testing.T) {
	srv, c := liveServer(t, serve.BatchOptions{Workers: 2, AsyncThreshold: -1})
	acc, err := c.SubmitJob(context.Background(), api.SweepRequest{
		Macros: []string{"base", "macro-b"}, Networks: []string{"toy"}, MaxMappings: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var transports []string
	var events int
	final, err := c.WaitJob(context.Background(), acc.Job.ID, WaitOptions{
		OnTransport: func(tr string) { transports = append(transports, tr) },
		OnEvent:     func(ev api.JobEvent) { events++ },
	})
	if err != nil || final.Status != jobs.StatusSucceeded {
		t.Fatalf("wait: %+v %v", final, err)
	}
	if len(transports) == 0 || transports[0] != "sse" {
		t.Fatalf("transports %v, want SSE first", transports)
	}
	if events == 0 {
		t.Fatal("no events observed")
	}
	if table, _ := final.Result.(string); !strings.Contains(table, "Batch sweep") {
		t.Fatalf("terminal result: %v", final.Result)
	}
	_ = srv
}

// TestWaitJobFallsBackToPolling: a server with no events endpoint (here:
// a stub that 404s the stream with a non-envelope body, like a proxy)
// still completes the wait via the poll path.
func TestWaitJobFallsBackToPolling(t *testing.T) {
	var version atomic.Int64
	version.Store(2)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			http.Error(w, "stream? never heard of it", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		v := version.Add(1)
		status, completed := "running", 0
		if v >= 5 {
			status, completed = "succeeded", 1
		}
		fmt.Fprintf(w, `{"id": "job-000001", "status": %q, "version": %d, "completed": %d, "total": 1}`, status, v, completed)
	}))
	defer stub.Close()

	c := New(stub.URL)
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	var transports []string
	final, err := c.WaitJob(context.Background(), "job-000001", WaitOptions{
		OnTransport: func(tr string) { transports = append(transports, tr) },
	})
	if err != nil || final.Status != jobs.StatusSucceeded {
		t.Fatalf("wait: %+v %v", final, err)
	}
	if len(transports) == 0 || transports[len(transports)-1] != "poll" {
		t.Fatalf("transports %v, want poll fallback", transports)
	}
}

// TestWaitJobDisableStream: the explicit polling mode never touches the
// events endpoint.
func TestWaitJobDisableStream(t *testing.T) {
	srv, c := liveServer(t, serve.BatchOptions{Workers: 1, AsyncThreshold: -1})
	acc, err := c.SubmitJob(context.Background(), api.SweepRequest{
		Macros: []string{"base"}, Networks: []string{"toy"}, MaxMappings: 1, Layers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var transports []string
	final, err := c.WaitJob(context.Background(), acc.Job.ID, WaitOptions{
		DisableStream: true,
		OnTransport:   func(tr string) { transports = append(transports, tr) },
	})
	if err != nil || !final.Done() {
		t.Fatalf("wait: %+v %v", final, err)
	}
	for _, tr := range transports {
		if tr == "sse" {
			t.Fatalf("transports %v: stream used despite DisableStream", transports)
		}
	}
	_ = srv
}

// TestClientObsEndpoints covers the SDK face of the observability
// surfaces: Metrics returns the raw Prometheus exposition, DebugSlow
// decodes the slow-request ring (newest first) and honors limit.
func TestClientObsEndpoints(t *testing.T) {
	_, c := liveServer(t, serve.BatchOptions{Workers: 2, AsyncThreshold: -1})
	ctx := context.Background()
	if _, err := c.Evaluate(ctx, api.EvalRequest{Macro: "base", Network: "toy", MaxMappings: 2}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil || !strings.Contains(text, "cimloop_evaluate_seconds_count") {
		t.Fatalf("metrics: %v\n%s", err, text)
	}
	slow, err := c.DebugSlow(ctx, 0)
	if err != nil || slow.Recorded == 0 || len(slow.Requests) == 0 {
		t.Fatalf("slow: %+v %v", slow, err)
	}
	// Newest first: the evaluate's HTTP span leads (the slow GET itself
	// is recorded only after its response is written).
	if slow.Requests[0].Route != "POST /v1/evaluate" {
		t.Fatalf("newest slow entry = %+v", slow.Requests[0])
	}
	limited, err := c.DebugSlow(ctx, 1)
	if err != nil || len(limited.Requests) != 1 {
		t.Fatalf("slow limit=1: %+v %v", limited, err)
	}
}
