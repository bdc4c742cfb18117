// Package serve is the concurrent batch-evaluation service: a bounded
// worker pool that fans evaluation requests (macro x network x system
// scenario grids) across goroutines, backed by a content-addressed LRU
// cache of compiled engines and per-layer contexts so amortized state is
// shared across requests instead of recompiled per call.
//
// The paper's speed claim rests on computing per-layer action energies
// once and reusing them across thousands of mappings; serve extends that
// amortization across requests: many clients sweeping the same macros and
// networks share cached state, and a warm sweep pays only the per-mapping
// count analysis. Built-in macro and network names are resolved, validated
// and fingerprinted once per server (see nameMemo), so a warm request does
// not rebuild or rehash what its names always denote.
//
// Use it directly:
//
//	srv := serve.NewServer(serve.BatchOptions{Workers: 8})
//	results, _ := srv.SweepCtx(ctx, serve.Grid([]string{"macro-a", "macro-b"},
//	    []string{"resnet18"}, nil, 0, 0), 8, nil)
//	fmt.Println(serve.SweepTable(results).String())
//
// or over HTTP via Server.Handler (see http.go and `cimloop serve`).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve/api"
	"repro/internal/specfile"
	"repro/internal/sweepdef"
	"repro/internal/system"
	"repro/internal/workload"
)

// BatchOptions tunes the service. The zero value is usable: one worker
// per CPU, the default mapping budget, and the default cache bound.
type BatchOptions struct {
	// Workers bounds the evaluation goroutines (default: NumCPU).
	Workers int
	// MaxMappings is the default per-layer mapping search budget for
	// requests that do not set their own (default 60, matching the
	// experiment runner).
	MaxMappings int
	// SearchWorkers is the default intra-request mapping-search fan-out:
	// each layer's candidate evaluations spread across up to this many
	// goroutines. Parallel search is bit-identical to serial —
	// deterministic minimum-cost, lowest-index winner — so the knob only
	// trades goroutines for single-request latency. > 1 is a fixed width;
	// anything else (the zero value included) searches serially. The
	// fan-out draws on a concurrency budget shared with the request-level
	// worker pool, so nested parallelism never oversubscribes: a saturated
	// pool degrades searches to serial, a lone request gets the whole
	// budget.
	SearchWorkers int
	// CacheEntries bounds the engine/context cache (default
	// DefaultCacheEntries), and separately the preparation memo its
	// engines share (core.PrepareMemo).
	CacheEntries int

	// CacheDir enables durable warm starts for the engine/context cache:
	// computed entries stream to this directory through a write-behind
	// queue, and a new server admits them back on boot so its first
	// repeated request is a cache hit instead of a recompilation. Empty
	// disables persistence (behavior is then byte-identical to earlier
	// versions).
	CacheDir string
	// MaxBodyBytes bounds every request body the HTTP layer will read
	// (default DefaultMaxBodyBytes). Oversized bodies are rejected with
	// 413 and an invalid_request error envelope instead of being decoded
	// unbounded.
	MaxBodyBytes int64

	// Token enables bearer-token authentication (see auth.go and
	// LoadTokenFile): every /v1 request must carry
	// "Authorization: Bearer <Token>". Empty (the default) keeps the
	// server open. The token can be rotated later via ReloadToken (the
	// CLI wires SIGHUP to it).
	Token string

	// SweepDefs registers a set of declarative sweep definitions (package
	// sweepdef, normally loaded from a sweeps/ directory) as named,
	// parameterized experiments behind GET /v1/experiments and
	// POST /v1/experiments/{name}. Nil serves no definitions; the set can
	// be hot-swapped later via ReloadSweepDefs (the CLI wires SIGHUP to
	// it, next to the token reload).
	SweepDefs *sweepdef.Set

	// SlowLogSize bounds the /v1/debug/slow request ring (default
	// DefaultSlowLogSize).
	SlowLogSize int
	// SlowThreshold is the duration at or above which a finished request
	// or sweep item is captured into the slow log. Zero (the default)
	// records everything — the ring is small and this keeps
	// /v1/debug/slow useful out of the box; negative disables recording.
	SlowThreshold time.Duration
}

// DefaultMaxBodyBytes is the default HTTP request-body bound (1 MiB —
// generous for explicit request lists, far beyond any grid spec).
const DefaultMaxBodyBytes = 1 << 20

func (o BatchOptions) maxBodyBytes() int64 {
	if o.MaxBodyBytes > 0 {
		return o.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

func (o BatchOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o BatchOptions) mappings() int {
	if o.MaxMappings > 0 {
		return o.MaxMappings
	}
	return 60
}

// searchWorkers resolves the configured default fan-out: > 1 is that
// fixed width, anything else is serial (1).
func (o BatchOptions) searchWorkers() int { return max(o.SearchWorkers, 1) }

// budgetCapacity sizes the shared concurrency budget: wide enough for the
// request pool at full tilt, and for the configured search fan-out when a
// single request has the server to itself.
func (o BatchOptions) budgetCapacity() int { return max(o.workers(), o.searchWorkers()) }

// Server owns the shared cache and worker bound. It is safe for
// concurrent use; one Server is meant to outlive many requests.
type Server struct {
	opts    BatchOptions
	cache   *Cache
	budget  *tokenBudget
	persist persistState
	start   time.Time
	// met and slow are the observability spine (see obs.go): every
	// subsystem reports into met's registry, /metrics and /healthz are
	// two views of it, and finished request spans land in slow.
	met  *serverMetrics
	slow *obs.SlowLog
	// token is the live bearer token. It is read per request and swapped
	// atomically by ReloadToken (SIGHUP rotation), so a reload never tears
	// a request between two tokens.
	token atomic.Pointer[string]
	// sweeps is the live sweep-definition set (see sweeps.go), swapped
	// atomically by ReloadSweepDefs under the same never-tear rule.
	sweeps atomic.Pointer[sweepdef.Set]
	// mappingsEvaluated is the cumulative count of candidate mappings
	// evaluated since boot, surfaced in /healthz.
	mappingsEvaluated atomic.Int64
	// names memoizes bare macro and zoo network names with their
	// fingerprints (see nameMemo), so warm requests stop rebuilding and
	// rehashing what a name always resolves to.
	names nameMemo

	// ExperimentNames and RunExperiment are injected by the facade so the
	// HTTP API can list and run paper reproductions without this package
	// importing the experiments package (which itself routes sweeps
	// through serve).
	ExperimentNames func() []string
	RunExperiment   func(name string, fast bool, maxMappings int, seed int64) ([]*report.Table, error)
}

// NewServer constructs a service with its own cache. With CacheDir
// configured it also opens the durable store and warm-starts from it:
// the cache dir is scanned in bounded parallel and entries admitted
// through the normal eviction policy. A store failure degrades to a
// non-persistent server (see PersistError) — persistence is strictly
// optional.
func NewServer(opts BatchOptions) *Server {
	s := &Server{
		opts:   opts,
		cache:  NewCache(opts.CacheEntries),
		budget: newTokenBudget(opts.budgetCapacity()),
		start:  time.Now(),
	}
	s.met = newServerMetrics(obs.NewRegistry())
	s.slow = obs.NewSlowLog(opts.slowLogSize(), opts.SlowThreshold)
	s.token.Store(&opts.Token)
	s.sweeps.Store(opts.SweepDefs)
	s.openPersist(opts.CacheDir)
	s.registerCollectors()
	s.warmStartCache()
	return s
}

// CacheStats snapshots the shared cache counters.
func (s *Server) CacheStats() Stats { return s.cache.Stats() }

// SearchStats snapshots the shared evaluation-concurrency budget.
func (s *Server) SearchStats() BudgetStats {
	return BudgetStats{
		Capacity:          s.budget.capacity(),
		Available:         s.budget.available(),
		SearchWorkers:     s.opts.searchWorkers(),
		MappingsEvaluated: s.mappingsEvaluated.Load(),
	}
}

// Close flushes and closes the durable cache store, if any. The cache
// stays usable; Close exists so tests and embedding programs shut the
// write-behind queue down deterministically.
func (s *Server) Close() {
	if s.persist.store != nil {
		s.persist.store.Close()
	}
}

// Request describes one evaluation. It is the wire type
// api.EvalRequest — the contract lives in internal/serve/api; this alias
// keeps programmatic callers (experiments, the facade) on the short
// name.
type Request = api.EvalRequest

// Result is one completed evaluation (the wire type api.EvalResult).
type Result = api.EvalResult

// resolveArch materializes the request's architecture, applying the
// optional full-system wrap.
func resolveArch(r *Request) (*core.Arch, error) {
	sources := 0
	for _, set := range []bool{r.Macro != "", r.Spec != "", r.Arch != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, errors.New("serve: request needs exactly one of macro, spec, or arch")
	}
	var arch *core.Arch
	var err error
	switch {
	case r.Arch != nil:
		arch = r.Arch
	case r.Macro != "":
		arch, err = macros.ByName(r.Macro)
	default:
		arch, err = specfile.Parse(r.Spec)
	}
	if err != nil {
		return nil, err
	}
	if r.Scenario == "" {
		return arch, nil
	}
	sc, err := scenarioByName(r.Scenario)
	if err != nil {
		return nil, err
	}
	n := r.SystemMacros
	if n <= 0 {
		n = 1
	}
	return system.Build(arch, sc, system.Config{Macros: n})
}

// scenarioByName parses the Fig. 15 scenario names as Scenario.String
// prints them.
func scenarioByName(name string) (system.Scenario, error) {
	for _, sc := range []system.Scenario{system.AllDRAM, system.WeightStationary, system.OnChipIO} {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown scenario %q (have %q, %q, %q)", name,
		system.AllDRAM, system.WeightStationary, system.OnChipIO)
}

// firstLayers returns net cut to its first k layers, or net itself when
// k <= 0 or k covers every layer. The copy shares net's layers; the full
// slice expression keeps an append on the copy off net's array.
func firstLayers(net *workload.Network, k int) *workload.Network {
	if k <= 0 || k >= len(net.Layers) {
		return net
	}
	cp := *net
	cp.Layers = net.Layers[:k:k]
	return &cp
}

// resolved is a request's architecture and validated network with the
// content fingerprints that address them in the cache.
type resolved struct {
	arch   *core.Arch
	archFP string
	net    *workload.Network
	// named is the memo entry of a zoo network name, which fingerprints
	// the layers on first use; any other network's LayerFingerprints are
	// in layerFPs, one per layer.
	named    *namedNet
	layerFPs []string
}

// layerFP returns the LayerFingerprint of the network's layer i.
func (rv *resolved) layerFP(i int) string {
	if rv.named != nil {
		return rv.named.layerFP(i)
	}
	return rv.layerFPs[i]
}

// resolve materializes the request's architecture and network with
// their fingerprints. A bare macro name and a network name come from the
// server's name memo; every other source (inline spec, programmatic Arch
// or Net, scenario wrap) is built and hashed per request. Either way a
// bad request fails with the same error: the architecture's, then the
// network's, then the network's validation error.
func (s *Server) resolve(r *Request) (resolved, error) {
	var rv resolved
	if r.Macro != "" && r.Spec == "" && r.Arch == nil && r.Scenario == "" {
		a, err := s.names.macro(r.Macro)
		if err != nil {
			return rv, err
		}
		rv.arch, rv.archFP = a.arch, a.fp
	} else {
		arch, err := resolveArch(r)
		if err != nil {
			return rv, err
		}
		rv.arch, rv.archFP = arch, ArchFingerprint(arch)
	}
	if (r.Network != "") == (r.Net != nil) {
		return rv, errors.New("serve: request needs exactly one of network name or prebuilt net")
	}
	if r.Net != nil {
		net := firstLayers(r.Net, r.Layers)
		if err := net.Validate(); err != nil {
			return rv, err
		}
		rv.net, rv.layerFPs = net, layerFingerprints(net.Layers)
		return rv, nil
	}
	n, err := s.names.network(r.Network)
	if err != nil {
		return rv, err
	}
	// A prefix of a valid network is valid.
	rv.net, rv.named = firstLayers(n.net, r.Layers), n
	return rv, nil
}

// EvaluateCtx runs one request through the cache: the engine and every
// layer context are fetched (or compiled once) from the content-addressed
// cache, and only the per-mapping count analysis runs unconditionally.
// Cancellation and deadlines are checked between layers and inside each
// layer's mapping search, so a cancelled request (client disconnect,
// timeout_sec) stops in-flight work instead of finishing the evaluation.
func (s *Server) EvaluateCtx(ctx context.Context, req Request) (*Result, error) {
	started := time.Now()
	sp := obs.FromContext(ctx)
	rv, err := s.resolve(&req)
	if err != nil {
		return nil, err
	}
	arch, net := rv.arch, rv.net
	lookup := time.Now()
	compiled := sp.Phase("compile")
	eng, err := s.cache.engine(ctx, arch, rv.archFP)
	if err != nil {
		return nil, err
	}
	compiled = observeCacheLookup(sp, lookup, compiled)
	mappings := req.MaxMappings
	if mappings <= 0 {
		mappings = s.opts.mappings()
	}
	// Per-request search_workers: > 1 fixed width, omitted (0) the
	// server default, anything else serial.
	width := s.opts.searchWorkers()
	if req.SearchWorkers != 0 {
		width = max(req.SearchWorkers, 1)
	}
	// Every evaluating goroutine — a sweep worker or a direct caller —
	// holds one budget token for the duration of its request, so the
	// budget is a single cap on actively-evaluating goroutines. Best
	// effort: a caller that finds the budget empty proceeds anyway
	// (requests must be served), it just cannot borrow fan-out extras.
	self := s.budget.tryAcquire(1)
	defer s.budget.release(self)
	// core.Engine.EvaluateNetworkOptsCtx's loop, but each layer's
	// amortized context comes from the cache instead of being re-prepared.
	// The contexts are fetched first: those another request is preparing,
	// or whose shared column sums another request is filling, are skipped
	// and fetched again, waiting, once the rest are done, so concurrent
	// requests that share a macro's sums fill different ones instead of
	// queueing behind each other. The searches then run in layer order,
	// which keeps NetworkResult's sums in that order.
	var stack [64]*core.LayerContext
	lctxs := stack[:0]
	if len(net.Layers) > len(stack) {
		lctxs = make([]*core.LayerContext, 0, len(net.Layers))
	}
	lctxs = lctxs[:len(net.Layers)]
	for _, wait := range [2]bool{false, true} {
		for i, l := range net.Layers {
			if lctxs[i] != nil {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lookup = time.Now()
			lctx, err := s.cache.layerContext(ctx, eng, rv.archFP, rv.layerFP(i), l, wait)
			compiled = observeCacheLookup(sp, lookup, compiled)
			if errors.Is(err, core.ErrPrepareBusy) && !wait {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("serve: network %q layer %q: %w", net.Name, l.Name, err)
			}
			lctxs[i] = lctx
		}
	}
	nr := &core.NetworkResult{Arch: eng.Arch().Name, Network: net.Name, AreaUm2: eng.Area()}
	for i, l := range net.Layers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The calling goroutine is one search worker for free; extras are
		// borrowed per layer from the shared budget so concurrent requests
		// split the machine instead of stacking goroutines. Returned
		// between layers, the tokens keep the split fluid.
		extra := s.budget.tryAcquire(width - 1)
		searchStart := time.Now()
		r, evaluated, err := eng.SearchLayerOptsCtx(ctx, lctxs[i], core.SearchOptions{
			MaxMappings:   mappings,
			Seed:          req.Seed + int64(i),
			SearchWorkers: 1 + extra,
		})
		s.budget.release(extra)
		sp.Observe("search", time.Since(searchStart))
		if err != nil {
			return nil, fmt.Errorf("serve: network %q layer %q: %w", net.Name, l.Name, err)
		}
		nr.Add(r, l.Repeat, evaluated)
	}
	s.mappingsEvaluated.Add(nr.MappingsEvaluated)
	res := &Result{
		Tag:               requestTag(&req, arch.Name, net.Name),
		Arch:              arch.Name,
		Network:           net.Name,
		EnergyJ:           nr.Energy,
		EnergyPerMACpJ:    nr.EnergyPerMAC() * 1e12,
		TOPSPerW:          nr.TOPSPerW(),
		GOPS:              nr.GOPS(),
		AreaMM2:           nr.AreaUm2 / 1e6,
		MACs:              nr.MACs,
		TimeSec:           nr.TimeSec,
		ElapsedSec:        time.Since(started).Seconds(),
		MappingsEvaluated: nr.MappingsEvaluated,
		NetworkResult:     nr,
	}
	sp.SetTag(res.Tag)
	s.met.evaluateSeconds.Observe(time.Since(started).Seconds())
	return res, nil
}

// observeCacheLookup attributes one cache lookup to the span: the
// elapsed wall time minus whatever "compile" time the lookup itself
// accrued (the singleflight winner runs the compute closure inline, and
// its obs.Timed already booked that under "compile") is pure cache
// overhead. Returns the span's new cumulative compile seconds, to seed
// the next call. Nil-span safe.
func observeCacheLookup(sp *obs.Span, start time.Time, compiledBefore float64) float64 {
	compiledNow := sp.Phase("compile")
	d := time.Since(start).Seconds() - (compiledNow - compiledBefore)
	if d > 0 {
		sp.Observe("cache", time.Duration(d*float64(time.Second)))
	}
	return compiledNow
}

func requestTag(r *Request, archName, netName string) string {
	if r.Tag != "" {
		return r.Tag
	}
	t := archName + "/" + netName
	// System-wrapped archs already carry the scenario in their name.
	if r.Scenario != "" && !strings.Contains(archName, r.Scenario) {
		t += "/" + r.Scenario
	}
	return t
}

// SweepCtx evaluates a batch of requests across up to workers goroutines
// (<= 0 means the server's Workers), streaming completions through a
// channel and returning results in request order. Per-request failures
// land in Result.Err; the sweep itself fails only on an empty batch or a
// cancelled context. Once ctx is cancelled no further grid items are
// dispatched, and in-flight evaluations abort through the per-layer
// search; the partial slice is returned alongside ctx.Err(), with
// never-dispatched items left nil. The optional onDone callback is
// invoked on the calling goroutine as each item finishes.
func (s *Server) SweepCtx(ctx context.Context, reqs []Request, workers int, onDone func(int, *Result)) ([]*Result, error) {
	if len(reqs) == 0 {
		return nil, errors.New("serve: empty sweep")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = s.opts.workers()
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	type indexed struct {
		i   int
		res *Result // nil: skipped because the sweep was cancelled
	}
	sweepStart := time.Now()
	feed := make(chan int)
	done := make(chan indexed)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if ctx.Err() != nil {
					done <- indexed{i, nil}
					continue
				}
				// Each grid item gets its own span: the time it sat behind
				// earlier items is its "queue" phase, and EvaluateCtx fills
				// in cache/compile/search below. HTTP requests carry a span
				// already, but one request-level span would smear phase
				// timings across the whole grid; per-item spans are what
				// make a single slow item findable in /v1/debug/slow.
				itemStart := time.Now()
				sp := obs.NewSpan("sweep-item")
				sp.Observe("queue", itemStart.Sub(sweepStart))
				// EvaluateCtx itself holds one budget token per in-flight
				// evaluation, so the pool and any intra-request fan-out
				// share one global concurrency cap.
				res, err := s.EvaluateCtx(obs.ContextWith(ctx, sp), reqs[i])
				if err != nil {
					if ctx.Err() != nil {
						// Interrupted, not failed: leave the slot empty
						// rather than reporting a context error as a
						// per-request failure.
						done <- indexed{i, nil}
						continue
					}
					res = &Result{Tag: requestTag(&reqs[i], reqs[i].Macro, reqs[i].Network), Err: err.Error()}
					sp.SetTag(res.Tag)
					sp.SetError(res.Err)
				}
				s.finishSpan(sp, time.Since(itemStart))
				done <- indexed{i, res}
			}
		}()
	}
	go func() {
		defer func() {
			close(feed)
			wg.Wait()
			close(done)
		}()
		for i := range reqs {
			select {
			case feed <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := make([]*Result, len(reqs))
	for d := range done {
		if d.res == nil {
			continue
		}
		out[d.i] = d.res
		if onDone != nil {
			onDone(d.i, d.res)
		}
	}
	return out, ctx.Err()
}

// secondsToTimeout converts a client-supplied timeout_sec to a duration,
// clamping instead of overflowing: float64 seconds beyond the int64
// nanosecond range would wrap negative (an already-expired deadline), so
// absurdly large requests saturate at ~292 years. Non-positive means no
// deadline.
func secondsToTimeout(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	if sec >= float64(math.MaxInt64)/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(sec * float64(time.Second))
}

// Grid builds the cross product of macros x networks x scenarios as a
// request batch. An empty scenario list means bare macros; layers and
// maxMappings apply to every request (0 keeps defaults).
func Grid(macroNames, networks, scenarios []string, layers, maxMappings int) []Request {
	if len(scenarios) == 0 {
		scenarios = []string{""}
	}
	var reqs []Request
	for _, m := range macroNames {
		for _, n := range networks {
			for _, sc := range scenarios {
				reqs = append(reqs, Request{
					Macro: m, Network: n, Scenario: sc,
					Layers: layers, MaxMappings: maxMappings,
				})
			}
		}
	}
	return reqs
}

// SweepTable aggregates sweep results into a report table, one row per
// request, mirroring the metric set of `cimloop spec`.
func SweepTable(results []*Result) *report.Table {
	t := report.NewTable("Batch sweep",
		"request", "energy (J)", "energy/MAC (pJ)", "TOPS/W", "GOPS", "area (mm^2)", "status")
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Err != "" {
			t.AddRow(r.Tag, "-", "-", "-", "-", "-", r.Err)
			continue
		}
		t.AddRow(r.Tag, report.Num(r.EnergyJ), report.Num(r.EnergyPerMACpJ),
			report.Num(r.TOPSPerW), report.Num(r.GOPS), report.Num(r.AreaMM2), "ok")
	}
	return t
}
