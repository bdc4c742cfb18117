// Package client is the Go SDK for the cimloop batch-evaluation
// service's v1 HTTP API. It speaks exactly the typed wire contract of
// internal/serve/api — one definition of every request/response shape,
// compile-checked on both sides — and adds the client-side mechanics a
// raw HTTP caller would have to hand-roll: context plumbing, decoding
// the structured error envelope into Go errors, automatic retry with
// backoff honoring Retry-After on backpressure, Server-Sent-Events
// streaming of job progress with Last-Event-ID resume, and a WaitJob
// that degrades gracefully from SSE to long-polling to plain polling.
//
// Quickstart:
//
//	c := client.New("localhost:8080")
//	acc, err := c.SubmitJob(ctx, api.SweepRequest{
//	    Macros:   []string{"base", "macro-b"},
//	    Networks: []string{"resnet18"},
//	})
//	snap, err := c.WaitJob(ctx, acc.Job.ID, client.WaitOptions{
//	    OnEvent: func(ev api.JobEvent) { fmt.Println(ev.Job.Completed) },
//	})
//
// Errors from non-2xx responses are *api.Error values: check them with
// errors.As or api.IsCode(err, api.CodeQueueFull).
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
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/jobs"
)

// Client talks to one serve instance. The zero value is not usable; use
// New. Safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	token      string
	// sleep is swapped in tests so retry backoff doesn't slow the suite.
	sleep func(context.Context, time.Duration) error
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). Note the client is used for SSE streams
// too, so a global Timeout would sever long streams — prefer transport-
// level timeouts.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithMaxRetries bounds automatic retries of backpressured requests
// (default 3; 0 disables).
func WithMaxRetries(n int) Option {
	return func(c *Client) { c.maxRetries = n }
}

// WithToken sends "Authorization: Bearer <token>" on every request
// (including SSE streams), for servers running with a token file.
// Empty means no header — the default for open servers.
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
		// No global Timeout: SSE streams and long-polls are long-lived by
		// design; callers bound individual calls with their ctx.
		hc:         &http.Client{},
		maxRetries: 3,
		sleep:      sleepCtx,
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

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// roundTrip issues one request, retrying backpressure (429 +
// queue_full) with the server's Retry-After hint, and returns the
// status plus raw 2xx body. Non-2xx responses come back as *api.Error.
// Every unary call — do and the 200-vs-202 split in Sweep — goes
// through here, so the retry contract cannot drift between methods.
func (c *Client) roundTrip(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
	}
	for attempt := 0; ; attempt++ {
		var rdr io.Reader
		if payload != nil {
			rdr = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
		if err != nil {
			return 0, nil, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.authorize(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		status := resp.StatusCode
		raw, apiErr, decodeErr := readResponse(resp)
		if decodeErr != nil {
			return status, nil, decodeErr
		}
		if apiErr == nil {
			return status, raw, nil
		}
		// Retry only the explicit backpressure signal: a full queue is
		// transient by contract, and no job was created, so resubmitting
		// cannot duplicate work. Everything else is the caller's problem.
		if apiErr.Code != api.CodeQueueFull || attempt >= c.maxRetries {
			return status, nil, apiErr
		}
		if err := c.sleep(ctx, retryDelay(apiErr, attempt)); err != nil {
			return status, nil, apiErr
		}
	}
}

// do is roundTrip plus decoding the 2xx body into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	_, raw, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// retryDelay picks the backoff before retrying a queue_full response:
// the server's hint when present, else exponential from 500ms.
func retryDelay(e *api.Error, attempt int) time.Duration {
	if e.RetryAfterSec > 0 {
		return time.Duration(e.RetryAfterSec) * time.Second
	}
	return 500 * time.Millisecond << attempt
}

// readResponse consumes the body: raw bytes on 2xx, an *api.Error
// envelope otherwise. The last return is a transport/read failure.
func readResponse(resp *http.Response) ([]byte, *api.Error, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode >= 300 {
		e := &api.Error{}
		if json.Unmarshal(raw, e) != nil || e.Code == "" {
			// Not an envelope (a proxy interjected, or a pre-v1 server):
			// preserve the raw body as the message.
			e = &api.Error{Code: api.CodeInternal, Message: strings.TrimSpace(string(raw))}
		}
		e.HTTPStatus = resp.StatusCode
		if e.RetryAfterSec == 0 {
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				e.RetryAfterSec = ra
			}
		}
		return nil, e, nil
	}
	return raw, nil, nil
}

// maxResponseBytes bounds any single response read (64 MiB: a full
// retention of grid results fits with room to spare; a runaway stream
// does not OOM the CLI).
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
	_, raw, err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil)
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

// Sweep runs a sweep. Exactly one of the returns is non-nil on success:
// the response for a synchronous sweep, or the accepted job when the
// server promoted the sweep to an async job (grid at the async
// threshold, or req.Async set). Backpressure on the promotion path is
// retried exactly like SubmitJob's.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest) (*api.SweepResponse, *api.JobAccepted, error) {
	status, raw, err := c.roundTrip(ctx, http.MethodPost, "/v1/sweep", req)
	if err != nil {
		return nil, nil, err
	}
	if status == http.StatusAccepted {
		var acc api.JobAccepted
		if err := json.Unmarshal(raw, &acc); err != nil {
			return nil, nil, err
		}
		return nil, &acc, nil
	}
	var out api.SweepResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, nil, err
	}
	return &out, nil, nil
}

// SubmitJob submits a sweep as an async job (always 202; retries
// backpressure per the client's retry policy).
func (c *Client) SubmitJob(ctx context.Context, req api.SweepRequest) (api.JobAccepted, error) {
	var out api.JobAccepted
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// Job fetches one job snapshot.
func (c *Client) Job(ctx context.Context, id string) (jobs.Snapshot, error) {
	var out jobs.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// PollJob is the long-poll form of Job: the server parks the request
// until the job's version exceeds afterVersion or wait elapses, then
// answers the current snapshot either way (compare versions to tell).
func (c *Client) PollJob(ctx context.Context, id string, afterVersion int64, wait time.Duration) (jobs.Snapshot, error) {
	q := url.Values{}
	q.Set("after_version", strconv.FormatInt(afterVersion, 10))
	if wait > 0 {
		q.Set("wait_sec", strconv.FormatFloat(wait.Seconds(), 'f', -1, 64))
	}
	var out jobs.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"?"+q.Encode(), nil, &out)
	return out, err
}

// Jobs lists retained jobs with optional status filtering and
// pagination.
func (c *Client) Jobs(ctx context.Context, q api.JobListQuery) (api.JobListResponse, error) {
	v := url.Values{}
	if q.Status != "" {
		v.Set("status", string(q.Status))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Cursor != "" {
		v.Set("cursor", q.Cursor)
	}
	path := "/v1/jobs"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var out api.JobListResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// CancelJob requests cancellation (idempotent) and returns the job's
// snapshot at that moment.
func (c *Client) CancelJob(ctx context.Context, id string) (jobs.Snapshot, error) {
	var out jobs.Snapshot
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, &out)
	return out, err
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

// Experiments lists the reproducible paper artifacts.
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

// ListExperiments lists the built-in experiments AND the server's
// registered sweeps/ definitions with their parameter schemas. It is
// Experiments under a clearer name; both hit GET /v1/experiments.
func (c *Client) ListExperiments(ctx context.Context) (api.ExperimentsResponse, error) {
	return c.Experiments(ctx)
}

// RunNamedExperiment runs one registered sweep definition by name,
// binding the request's parameters into its declared axes and budgets
// (POST /v1/experiments/{name}). Exactly one of the returns is non-nil
// on success, mirroring Sweep: the synchronous response, or the accepted
// job when the request asked for async or the compiled grid reached the
// server's promotion threshold.
func (c *Client) RunNamedExperiment(ctx context.Context, name string, req api.NamedExperimentRequest) (*api.SweepResponse, *api.JobAccepted, error) {
	status, raw, err := c.roundTrip(ctx, http.MethodPost, "/v1/experiments/"+url.PathEscape(name), req)
	if err != nil {
		return nil, nil, err
	}
	if status == http.StatusAccepted {
		var acc api.JobAccepted
		if err := json.Unmarshal(raw, &acc); err != nil {
			return nil, nil, err
		}
		return nil, &acc, nil
	}
	var out api.SweepResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, nil, err
	}
	return &out, nil, nil
}
