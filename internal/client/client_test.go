package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/api"
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
	_, c := liveServer(t, serve.BatchOptions{Workers: 2})
	ctx := context.Background()

	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v %v", h, err)
	}
	res, err := c.Evaluate(ctx, api.EvalRequest{Macro: "macro-b", Network: "toy", MaxMappings: 2})
	if err != nil || res.EnergyJ <= 0 || res.Network != "toy" {
		t.Fatalf("evaluate: %+v %v", res, err)
	}
	sweep, err := c.Sweep(ctx, api.SweepRequest{
		Macros: []string{"base", "macro-b"}, Networks: []string{"toy"}, MaxMappings: 2,
	})
	if err != nil || sweep == nil || len(sweep.Results) != 2 {
		t.Fatalf("sweep: %+v %v", sweep, err)
	}
	if sweep.Table == "" || sweep.Cache.Misses == 0 {
		t.Fatalf("sweep extras: %+v", sweep)
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
	_, err := c.Evaluate(context.Background(), api.EvalRequest{Macro: "no-such", Network: "toy"})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T %v", err, err)
	}
	if apiErr.Code != api.CodeInvalidRequest || apiErr.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("envelope: %+v", apiErr)
	}
	if !api.IsCode(err, api.CodeInvalidRequest) {
		t.Fatal("IsCode")
	}
	// Unknown routes are envelopes too (the middleware), so the SDK's
	// error surface is uniform.
	if err := c.do(context.Background(), http.MethodGet, "/nope", nil, nil); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("route 404: %v", err)
	}
}

// TestClientObsEndpoints covers the SDK face of the observability
// surfaces: Metrics returns the raw Prometheus exposition, DebugSlow
// decodes the slow-request ring (newest first) and honors limit.
func TestClientObsEndpoints(t *testing.T) {
	_, c := liveServer(t, serve.BatchOptions{Workers: 2})
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
