package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/macros"
	"repro/internal/serve/api"
	"repro/internal/workload"
)

// Handler returns the HTTP JSON API. The wire contract — every request
// and response body and the error envelope — is defined in
// internal/serve/api and documented in docs/API.md:
//
//	GET  /healthz               liveness + cache/budget/persist/obs
//	                            stats (a JSON view of the same producers
//	                            /metrics exposes)
//	GET  /metrics               Prometheus text exposition of the
//	                            server's metrics registry (auth-exempt,
//	                            like /healthz)
//	GET  /v1/debug/slow         api.SlowResponse: the slow-request ring,
//	                            newest first; ?limit= truncates
//	POST /v1/evaluate           api.EvalRequest -> api.EvalResult
//	POST /v1/sweep              api.SweepRequest -> api.SweepResponse,
//	                            synchronously at any grid size
//	GET  /v1/macros             api.MacrosResponse (Table III)
//	GET  /v1/networks           api.NetworksResponse (model zoo)
//	GET  /v1/experiments        api.ExperimentsResponse: built-in
//	                            experiments plus registered sweeps/
//	                            definitions with parameter schemas
//	POST /v1/experiments        api.ExperimentRunRequest -> tables
//	POST /v1/experiments/{name} api.NamedExperimentRequest: bind
//	                            parameters into a registered definition
//	                            and run its grid through the sweep path
//	                            (200 SweepResponse)
//
// Every response is JSON; every error — including unknown routes,
// wrong methods, oversized bodies, and recovered panics — is the
// api.Error envelope with a stable machine-readable code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/slow", s.handleSlow)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/macros", s.handleMacros)
	mux.HandleFunc("GET /v1/networks", s.handleNetworks)
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	mux.HandleFunc("POST /v1/experiments", s.handleExperimentRun)
	mux.HandleFunc("POST /v1/experiments/{name}", s.handleNamedExperiment)
	// Auth runs outside the mux so an unauthenticated request learns
	// nothing about the route table; /healthz and /metrics are exempt
	// inside withAuth. The obs middleware sits inside auth so 401s never
	// mint route label sets.
	return withRecovery(withJSONErrors(s.withAuth(s.withObs(mux))))
}

// withJSONErrors rewrites the mux's built-in plain-text 404/405
// responses into the v1 error envelope, so a client never has to parse
// two error grammars. Handlers that write their own JSON errors (they
// set Content-Type before WriteHeader) pass through untouched.
func withJSONErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&jsonErrorWriter{ResponseWriter: w, req: r}, r)
	})
}

// jsonErrorWriter intercepts WriteHeader(404|405) calls whose
// Content-Type is not already JSON — exactly the net/http defaults —
// swallows the plain-text body that follows, and writes the envelope
// instead.
type jsonErrorWriter struct {
	http.ResponseWriter
	req         *http.Request
	intercepted bool
}

func (w *jsonErrorWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		w.Header().Get("Content-Type") != "application/json" {
		w.intercepted = true
		e := api.Errorf(api.CodeNotFound, "no route for %s %s", w.req.Method, w.req.URL.Path)
		if code == http.StatusMethodNotAllowed {
			e = api.Errorf(api.CodeMethodNotAllowed, "method %s not allowed on %s", w.req.Method, w.req.URL.Path)
			if allow := w.Header().Get("Allow"); allow != "" {
				e.Details = map[string]string{"allow": allow}
			}
		}
		h := w.Header()
		h.Del("Content-Length")
		h.Del("X-Content-Type-Options")
		h.Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(code)
		enc := json.NewEncoder(w.ResponseWriter)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		// Drop the plain-text body net/http writes after its WriteHeader;
		// the envelope already went out.
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// withRecovery turns a handler panic into a 500 + internal envelope
// instead of a severed connection with no body. http.ErrAbortHandler —
// the sanctioned "hang up now" panic — is re-raised untouched.
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			// Best effort: if the handler already streamed a partial body
			// this lands mid-stream, but for the overwhelmingly common
			// panic-before-write case the client gets a well-formed
			// envelope. The panic detail stays server-side.
			writeAPIError(w, http.StatusInternalServerError,
				api.Errorf(api.CodeInternal, "internal error handling %s %s", r.Method, r.URL.Path))
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeAPIError sends the v1 error envelope. Every error path in this
// file funnels through here, so the envelope shape cannot drift between
// endpoints.
func writeAPIError(w http.ResponseWriter, status int, e *api.Error) {
	writeJSON(w, status, e)
}

// decodeJSON decodes a bounded request body, rejecting unknown fields
// (silent typos would otherwise evaluate the wrong thing) and oversized
// payloads (413 + envelope; the bound is BatchOptions.MaxBodyBytes).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decodeBody(w, r, v, false)
}

// decodeJSONOptional is decodeJSON for endpoints where an absent body is
// a valid request (POST /v1/experiments/{name} with every parameter at
// its default): EOF before any JSON leaves v at its zero value.
func (s *Server) decodeJSONOptional(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decodeBody(w, r, v, true)
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) bool {
	limit := s.opts.maxBodyBytes()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil || (allowEmpty && errors.Is(err, io.EOF)) {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		e := api.Errorf(api.CodeInvalidRequest, "request body exceeds %d bytes", limit)
		e.Details = map[string]string{"max_bytes": strconv.FormatInt(limit, 10)}
		writeAPIError(w, http.StatusRequestEntityTooLarge, e)
		return false
	}
	writeAPIError(w, http.StatusBadRequest,
		api.Errorf(api.CodeInvalidRequest, "bad request body: %v", err))
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.HealthzResponse{
		Status:    "ok",
		Version:   api.Version,
		UptimeSec: time.Since(s.start).Seconds(),
		Cache:     s.CacheStats(),
		Search:    s.SearchStats(),
		Persist:   s.PersistStats(),
		Obs:       s.ObsStats(),
	})
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !s.decodeJSON(w, r, &req) {
		return
	}
	res, err := s.EvaluateCtx(r.Context(), req)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.Errorf(api.CodeInvalidRequest, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// resolveSweep expands a SweepRequest into its request list: the
// explicit list if present, the grid cross-product otherwise.
func resolveSweep(b *api.SweepRequest) []Request {
	if len(b.Requests) > 0 {
		return b.Requests
	}
	return Grid(b.Macros, b.Networks, b.Scenarios, b.Layers, b.MaxMappings)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var body api.SweepRequest
	if !s.decodeJSON(w, r, &body) {
		return
	}
	s.runSweep(w, r, resolveSweep(&body), body.TimeoutSec)
}

// runSweep answers a sweep synchronously, whatever its size: the request
// context stops dispatch when the client disconnects, and timeoutSec > 0
// bounds the run (504 deadline_exceeded on expiry).
func (s *Server) runSweep(w http.ResponseWriter, r *http.Request, reqs []Request, timeoutSec float64) {
	ctx := r.Context()
	if d := secondsToTimeout(timeoutSec); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	results, err := s.SweepCtx(ctx, reqs, 0, nil)
	if err != nil {
		// A sweep killed by its own timeout_sec is a server-side timeout,
		// not a malformed request: clients keying retry logic on the
		// status class must be able to tell the two apart.
		if errors.Is(err, context.DeadlineExceeded) {
			writeAPIError(w, http.StatusGatewayTimeout, api.Errorf(api.CodeDeadlineExceeded, "%v", err))
			return
		}
		writeAPIError(w, http.StatusBadRequest, api.Errorf(api.CodeInvalidRequest, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.SweepResponse{
		Results: results,
		Table:   SweepTable(results).String(),
		Cache:   s.CacheStats(),
	})
}

func (s *Server) handleMacros(w http.ResponseWriter, r *http.Request) {
	var out api.MacrosResponse
	for _, m := range macros.TableIII() {
		out.Macros = append(out.Macros, api.MacroInfo{
			Macro: m.Macro, Node: m.Node, Device: m.Device,
			InputBits: m.InputBits, WeightBits: m.WeightBits,
			Array: m.Array, ADCBits: m.ADCBits,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	var out api.NetworksResponse
	for _, name := range workload.Names() {
		n, err := workload.ByName(name)
		if err != nil {
			writeAPIError(w, http.StatusInternalServerError, api.Errorf(api.CodeInternal, "%v", err))
			return
		}
		out.Networks = append(out.Networks, api.NetworkInfo{Name: n.Name, Layers: len(n.Layers), MACs: n.MACs()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	set := s.sweepSet()
	if s.ExperimentNames == nil && set.Len() == 0 {
		writeAPIError(w, http.StatusNotImplemented,
			api.Errorf(api.CodeNotImplemented, "experiment listing not wired"))
		return
	}
	out := api.ExperimentsResponse{Definitions: set.Infos()}
	if s.ExperimentNames != nil {
		out.Experiments = s.ExperimentNames()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	if s.RunExperiment == nil {
		writeAPIError(w, http.StatusNotImplemented,
			api.Errorf(api.CodeNotImplemented, "experiment runner not wired"))
		return
	}
	var body api.ExperimentRunRequest
	if !s.decodeJSON(w, r, &body) {
		return
	}
	tables, err := s.RunExperiment(body.Name, body.Fast, body.MaxMappings, body.Seed)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.Errorf(api.CodeInvalidRequest, "%v", err))
		return
	}
	out := api.ExperimentRunResponse{Tables: make([]string, 0, len(tables))}
	for _, t := range tables {
		out.Tables = append(out.Tables, t.String())
	}
	writeJSON(w, http.StatusOK, out)
}

// ListenAndServe starts the HTTP API on addr and blocks. It exists so
// `cimloop serve` is one call; tests use Handler with httptest instead.
func (s *Server) ListenAndServe(addr string) error {
	return s.ListenAndServeCtx(context.Background(), addr)
}

// shutdownGrace is how long a context-driven shutdown lets in-flight
// requests drain before it closes their connections.
var shutdownGrace = 5 * time.Second

// ListenAndServeCtx is ListenAndServe under a context: when ctx is
// cancelled (the CLI wires SIGINT/SIGTERM here) the listener shuts down
// gracefully, in-flight requests drain, and the server closes, flushing
// the write-behind persistence queue to disk. A request still running
// after shutdownGrace (a long sweep, say) has its connection closed,
// which cancels its context, so its evaluations stop too. Returns nil on
// a clean context-driven shutdown.
func (s *Server) ListenAndServeCtx(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	stop := make(chan struct{})
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		select {
		case <-ctx.Done():
			shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			defer cancel()
			if srv.Shutdown(shutdownCtx) != nil {
				_ = srv.Close()
			}
		case <-stop:
		}
	}()
	err := srv.ListenAndServe()
	close(stop)
	<-shutdownDone // if Shutdown started, let it finish draining handlers
	if ctx.Err() != nil && errors.Is(err, http.ErrServerClosed) {
		// Context-driven shutdown: this server is done for good — close
		// it so the persistence queue flushes. On any other return (a
		// bind failure, say) the Server stays usable: an embedder may
		// retry on another address.
		s.Close()
		err = nil
	}
	return err
}
