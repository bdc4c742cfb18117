// Package client is the Go SDK for the cimloop batch-evaluation
// service's v1 HTTP API. It speaks exactly the typed wire contract of
// internal/serve/api — one definition of every request/response shape,
// compile-checked on both sides — and adds the client-side mechanics a
// raw HTTP caller would have to hand-roll: context plumbing and decoding
// the structured error envelope into Go errors.
//
// Quickstart:
//
//	c := client.New("localhost:8080")
//	resp, err := c.Sweep(ctx, api.SweepRequest{
//	    Macros:   []string{"base", "macro-b"},
//	    Networks: []string{"resnet18"},
//	})
//	fmt.Println(resp.Table)
//
// Errors from non-2xx responses are *api.Error values: check them with
// errors.As or api.IsCode(err, api.CodeDeadlineExceeded).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/serve/api"
)

// Client talks to one serve instance. The zero value is not usable; use
// New. Safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	token string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). A sweep answers only when its whole grid
// is done, so a global Timeout caps the largest sweep a caller can run —
// prefer bounding each call with its ctx.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithToken sends "Authorization: Bearer <token>" on every request, for
// servers running with a token file. Empty means no header — the default
// for open servers.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// New returns a client for the serve instance at addr ("host:port" or a
// full URL).
func New(addr string, opts ...Option) *Client {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base: base,
		// No global Timeout: a large sweep is long-lived by design;
		// callers bound individual calls with their ctx.
		hc: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL reports the resolved server base URL.
func (c *Client) BaseURL() string { return c.base }

// authorize stamps the bearer token onto a request when one is set.
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// roundTrip issues one request and returns the raw 2xx body.
// Non-2xx responses come back as *api.Error.
func (c *Client) roundTrip(ctx context.Context, method, path string, body any) ([]byte, error) {
	var rdr io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rdr = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	return readResponse(resp)
}

// do is roundTrip plus decoding the 2xx body into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	raw, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// readResponse consumes the body: raw bytes on 2xx, an *api.Error
// envelope otherwise.
func readResponse(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		e := &api.Error{}
		if json.Unmarshal(raw, e) != nil || e.Code == "" {
			// Not an envelope (a proxy interjected, or a pre-v1 server):
			// preserve the raw body as the message.
			e = &api.Error{Code: api.CodeInternal, Message: strings.TrimSpace(string(raw))}
		}
		e.HTTPStatus = resp.StatusCode
		return nil, e
	}
	return raw, nil
}

// maxResponseBytes bounds any single response read (64 MiB: a large
// grid's results fit with room to spare; a runaway body does not OOM the
// CLI).
const maxResponseBytes = 64 << 20

// Healthz fetches the server's liveness and stats snapshot.
func (c *Client) Healthz(ctx context.Context) (api.HealthzResponse, error) {
	var out api.HealthzResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Metrics fetches the server's Prometheus text exposition from
// GET /metrics, returned verbatim (the format is line-oriented text,
// not JSON — pipe it to a scraper or grep it).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	raw, err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// DebugSlow fetches the server's slow-request ring buffer (newest
// first). limit > 0 caps the entries returned; 0 returns everything
// retained.
func (c *Client) DebugSlow(ctx context.Context, limit int) (api.SlowResponse, error) {
	path := "/v1/debug/slow"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var out api.SlowResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Evaluate runs one synchronous evaluation.
func (c *Client) Evaluate(ctx context.Context, req api.EvalRequest) (*api.EvalResult, error) {
	var out api.EvalResult
	if err := c.do(ctx, http.MethodPost, "/v1/evaluate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep runs a sweep synchronously and returns every result.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest) (*api.SweepResponse, error) {
	var out api.SweepResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Macros lists the published macro models (paper Table III).
func (c *Client) Macros(ctx context.Context) (api.MacrosResponse, error) {
	var out api.MacrosResponse
	err := c.do(ctx, http.MethodGet, "/v1/macros", nil, &out)
	return out, err
}

// Networks lists the model-zoo workloads.
func (c *Client) Networks(ctx context.Context) (api.NetworksResponse, error) {
	var out api.NetworksResponse
	err := c.do(ctx, http.MethodGet, "/v1/networks", nil, &out)
	return out, err
}

// Experiments lists the built-in experiments and the server's
// registered sweeps/ definitions with their parameter schemas.
func (c *Client) Experiments(ctx context.Context) (api.ExperimentsResponse, error) {
	var out api.ExperimentsResponse
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out)
	return out, err
}

// RunExperiment regenerates one paper table or figure server-side.
func (c *Client) RunExperiment(ctx context.Context, req api.ExperimentRunRequest) (api.ExperimentRunResponse, error) {
	var out api.ExperimentRunResponse
	err := c.do(ctx, http.MethodPost, "/v1/experiments", req, &out)
	return out, err
}

// RunNamedExperiment runs one registered sweep definition by name,
// binding the request's parameters into its declared axes and budgets
// (POST /v1/experiments/{name}), synchronously like Sweep.
func (c *Client) RunNamedExperiment(ctx context.Context, name string, req api.NamedExperimentRequest) (*api.SweepResponse, error) {
	var out api.SweepResponse
	if err := c.do(ctx, http.MethodPost, "/v1/experiments/"+url.PathEscape(name), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
