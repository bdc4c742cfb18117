package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/api"
)

// Observability wiring: the server owns one obs.Registry that every
// subsystem reports into, plus a slow-request ring. /metrics is the
// Prometheus view of the registry; /healthz is the JSON view of the
// same producers — both read the same counters, so the two surfaces
// cannot drift apart. Request-scoped spans are created per HTTP
// request and per sweep item, accumulate phase timings (queue, cache,
// compile, search) as the context flows serve → core → mapper →
// persist, and land in phase histograms and the slow log when they
// finish.

// DefaultSlowLogSize bounds the /v1/debug/slow ring when
// BatchOptions.SlowLogSize is zero.
const DefaultSlowLogSize = 64

func (o BatchOptions) slowLogSize() int {
	if o.SlowLogSize > 0 {
		return o.SlowLogSize
	}
	return DefaultSlowLogSize
}

// serverMetrics holds the hot-path instruments. Everything snapshot-
// shaped (cache/budget/persist stats) is instead emitted
// by the registry collector at scrape time — one producer, two views.
type serverMetrics struct {
	reg *obs.Registry

	requestsTotal   *obs.CounterVec   // route, code
	requestSeconds  *obs.HistogramVec // route
	phaseSeconds    *obs.HistogramVec // phase
	evaluateSeconds *obs.Histogram
	persistWrite    *obs.HistogramVec // store
	tokenReloads    *obs.CounterVec   // result
	sweepReloads    *obs.CounterVec   // result
	spansTotal      *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg: reg,
		requestsTotal: reg.CounterVec("cimloop_http_requests_total",
			"HTTP requests by route pattern and status code.", "route", "code"),
		requestSeconds: reg.HistogramVec("cimloop_http_request_seconds",
			"HTTP request latency by route pattern.", nil, "route"),
		phaseSeconds: reg.HistogramVec("cimloop_request_phase_seconds",
			"Time spent per traced request phase (queue, cache, compile, search).", nil, "phase"),
		evaluateSeconds: reg.Histogram("cimloop_evaluate_seconds",
			"End-to-end latency of one evaluation (cache lookups + mapping search).", nil),
		persistWrite: reg.HistogramVec("cimloop_persist_write_seconds",
			"Write-behind store write latency (encode + fsync + rename), by store.", nil, "store"),
		tokenReloads: reg.CounterVec("cimloop_token_reloads_total",
			"Token-file hot reloads by result (SIGHUP token rotation).", "result"),
		sweepReloads: reg.CounterVec("cimloop_sweepdef_reloads_total",
			"Sweep-definition hot reloads by result (boot registration and SIGHUP).", "result"),
		spansTotal: reg.Counter("cimloop_spans_total",
			"Finished request spans (HTTP requests and sweep items)."),
	}
}

// Metrics returns the server's registry, for embedding programs that
// want to add their own instruments or serve /metrics themselves.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// SlowRequests snapshots the slow-request ring, newest first.
func (s *Server) SlowRequests() []obs.SlowEntry { return s.slow.Snapshot() }

// finishSpan retires one span: phase histograms, the span counter, and
// the slow log.
func (s *Server) finishSpan(sp *obs.Span, d time.Duration) {
	s.met.spansTotal.Inc()
	for _, p := range sp.Phases() {
		s.met.phaseSeconds.With(p.Phase).Observe(p.Seconds)
	}
	s.slow.RecordSpan(sp, d)
}

// registerCollectors wires the existing stat producers into the
// registry as scrape-time collectors. /healthz reads the same
// producers, so every series here but the prepare memo's has a healthz
// counterpart.
func (s *Server) registerCollectors() {
	reg := s.met.reg
	reg.GaugeFunc("cimloop_uptime_seconds", "Seconds since boot.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.Collect(func(e *obs.Emit) {
		cs := s.CacheStats()
		e.Counter("cimloop_cache_hits_total", "Engine/context cache hits.", float64(cs.Hits))
		e.Counter("cimloop_cache_misses_total", "Engine/context cache misses.", float64(cs.Misses))
		e.Counter("cimloop_cache_evictions_total", "Engine/context cache evictions (least recently used).", float64(cs.Evictions))
		e.Counter("cimloop_cache_restored_total", "Cache entries admitted from the warm-start disk store.", float64(cs.Restored))
		e.Counter("cimloop_cache_compiles_total", "Cold compiles (engine or layer context).", float64(cs.Compiles))
		e.Gauge("cimloop_cache_entries", "Live cache entries.", float64(cs.Entries))
		// The layer-preparation memo the cached engines share.
		ops, sums := s.cache.memo.Stats()
		e.Counter("cimloop_prepare_memo_lookups_total", "Layer-preparation memo lookups by entry kind.", float64(ops.Lookups), "kind", "operand")
		e.Counter("cimloop_prepare_memo_lookups_total", "", float64(sums.Lookups), "kind", "sum")
		e.Counter("cimloop_prepare_memo_fills_total", "Layer-preparation memo lookups that computed their entry, by kind.", float64(ops.Fills), "kind", "operand")
		e.Counter("cimloop_prepare_memo_fills_total", "", float64(sums.Fills), "kind", "sum")

		bs := s.SearchStats()
		e.Gauge("cimloop_search_budget_capacity", "Shared evaluation-concurrency budget size.", float64(bs.Capacity))
		e.Gauge("cimloop_search_budget_available", "Free budget tokens (instantaneous).", float64(bs.Available))
		e.Counter("cimloop_mappings_evaluated_total", "Candidate mappings evaluated since boot.", float64(bs.MappingsEvaluated))

		if ps := s.PersistStats(); ps.Enabled {
			st := ps.Cache
			e.Counter("cimloop_persist_written_total", "Records written by the write-behind store.", float64(st.Written), "store", "cache")
			e.Counter("cimloop_persist_write_errors_total", "Write-behind store errors.", float64(st.WriteErrors), "store", "cache")
			e.Counter("cimloop_persist_dropped_total", "Puts dropped by a full queue.", float64(st.Dropped), "store", "cache")
		}

		e.Gauge("cimloop_slow_log_entries", "Entries retained in the slow-request ring.", float64(s.slow.Len()))
		e.Counter("cimloop_slow_log_recorded_total", "Requests ever recorded into the slow log.", float64(s.slow.Recorded()))
	})
}

// ObsStats assembles the healthz "obs" section as a view of the
// registry: every number here is read back from an obs instrument or
// the slow log, not tracked separately.
func (s *Server) ObsStats() api.ObsStats {
	return api.ObsStats{
		Spans:             int64(s.met.spansTotal.Value()),
		SlowEntries:       s.slow.Len(),
		SlowRecorded:      s.slow.Recorded(),
		SlowThresholdSec:  s.slow.Threshold().Seconds(),
		DroppedLabelSets:  s.met.reg.DroppedLabelSets(),
		TokenReloads:      int64(s.met.tokenReloads.With("ok").Value()),
		TokenReloadErrors: int64(s.met.tokenReloads.With("error").Value()),
		SweepReloads:      int64(s.met.sweepReloads.With("ok").Value()),
		SweepReloadErrors: int64(s.met.sweepReloads.With("error").Value()),
	}
}

// withObs wraps the mux with per-request tracing and metrics: a span on
// the request context (phases filled in by the layers below), the
// route/status counters, and the request-latency histogram. Routes are
// labeled by mux pattern — bounded cardinality — never by raw path.
// /healthz and /metrics are exempt: probes and scrapes arrive every few
// seconds and would drown the signal they exist to read.
func (s *Server) withObs(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			mux.ServeHTTP(w, r)
			return
		}
		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		sp := obs.NewSpan(route)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(rec, r.WithContext(obs.ContextWith(r.Context(), sp)))
		d := time.Since(sp.Start())
		s.met.requestsTotal.With(route, strconv.Itoa(rec.status)).Inc()
		s.met.requestSeconds.With(route).Observe(d.Seconds())
		if rec.status >= http.StatusBadRequest {
			sp.SetError("HTTP " + strconv.Itoa(rec.status))
		}
		s.finishSpan(sp, d)
	})
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusRecorder) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

// handleMetrics serves the registry as Prometheus text format. Exempt
// from auth like /healthz: scrape targets don't carry bearer tokens,
// and the exposition holds no secrets.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.reg.Handler().ServeHTTP(w, r)
}

// handleSlow serves the slow-request ring (newest first). Behind auth
// when the server has a token — request tags and error strings are
// operator data. ?limit=N truncates the snapshot.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Snapshot()
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeAPIError(w, http.StatusBadRequest,
				api.Errorf(api.CodeInvalidRequest, "limit must be a positive integer, got %q", v))
			return
		}
		if n < len(entries) {
			entries = entries[:n]
		}
	}
	writeJSON(w, http.StatusOK, api.SlowResponse{
		Requests:     entries,
		Recorded:     s.slow.Recorded(),
		ThresholdSec: s.slow.Threshold().Seconds(),
	})
}

// DebugHandler is the opt-in debug listener's handler (`cimloop serve
// -debug-addr`): net/http/pprof plus a /metrics alias. It is never
// mounted on the public API listener — profiling endpoints expose heap
// contents and must stay on an operator-only port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}
