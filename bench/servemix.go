package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/system"
)

// serve-mixed is `cimloop serve` behind loopback HTTP under a closed
// loop: two clients, each sending its next request when the previous
// reply arrives, the way SDK and CLI callers do. 80% are warm
// /v1/evaluate requests over 12 pre-filled keys (only the mapping search
// runs), 15% are cold /v1/evaluate requests that each compile a new
// weight-stationary system of base macros, and 5% are synchronous
// /v1/sweep requests. Cold fills are the writes beside the warm reads
// and push the cache into eviction, so a change that speeds hits by
// slowing fills shows. Cold requests share one macro, and are more than
// a tenth of the mix, so that op_ms_p90, which reads each op at its
// kind's (hit, miss, sweep) median, is the misses' median latency.
//
// The server searches serially (-search-workers -1). At the default
// adaptive width, two concurrent requests empty the shared budget and
// park each other's layer searches for up to 250 ms, which makes this
// workload's throughput vary by about 50% from run to run — wider than
// any bound the benchmark can hold. sweep-cold still runs the defaults.
var serveMacros = []string{"base", "macro-a", "macro-b", "macro-d", "digital-cim", "tpu-like"}

const (
	serveMappings = 16
	serveClients  = 2
	// serveRequests bounds the pre-generated request list; a run sends
	// as many as its window allows.
	serveRequests = 20000
	// quickRequests is a window's size in quick mode.
	quickRequests = 20
)

// mixReq is one pre-generated request.
type mixReq struct {
	kind   string // "hit", "miss" or "sweep"
	path   string
	body   []byte
	layers int // per evaluation, for the mapping-count invariant
	items  int // evaluations in the reply
}

// warmKeys are the 12 requests the cache is filled with in setup.
func warmKeys() []serve.Request {
	var out []serve.Request
	for _, m := range serveMacros {
		out = append(out,
			serve.Request{Macro: m, Network: "mobilenetv3-large", MaxMappings: serveMappings},
			serve.Request{Macro: m, Network: "resnet18", Layers: 8, MaxMappings: serveMappings})
	}
	return out
}

func netLayers(r serve.Request) int {
	if r.Layers > 0 {
		return r.Layers
	}
	if r.Network == "mobilenetv3-large" {
		return 15
	}
	return 21
}

type serveMix struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	reqs   []mixReq
	next   atomic.Int64 // index of the next request to send
}

func startServe(cfg config) (instance, error) {
	srv := serve.NewServer(serve.BatchOptions{Workers: serveClients, SearchWorkers: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	x := &serveMix{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients,
		}},
	}
	go func() { x.served <- x.hs.Serve(ln) }()

	// Fill the cache with the warm keys, two clients at a time.
	keys := warmKeys()
	errs := make(chan error, len(keys))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(keys); i += serveClients {
				body, _ := json.Marshal(keys[i])
				if _, err := x.post("/v1/evaluate", body); err != nil {
					errs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		x.close()
		return nil, fmt.Errorf("cache fill: %w", err)
	}
	x.reqs = genMix(cfg.seed, keys)
	return x, nil
}

// genMix draws the request list from seed.
func genMix(seed int64, keys []serve.Request) []mixReq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mixReq, 0, serveRequests)
	cold := 0
	for len(out) < serveRequests {
		u := rng.Float64()
		var r mixReq
		var v any
		switch {
		case u < 0.80:
			req := keys[rng.Intn(len(keys))]
			req.Seed = rng.Int63n(1 << 20)
			r = mixReq{kind: "hit", path: "/v1/evaluate", layers: netLayers(req), items: 1}
			v = req
		case u < 0.95:
			cold++
			req := serve.Request{
				Macro: "base", Network: "mobilenetv3-large",
				Scenario: system.WeightStationary.String(), SystemMacros: 1 + cold,
				MaxMappings: serveMappings, Seed: rng.Int63n(1 << 20),
			}
			r = mixReq{kind: "miss", path: "/v1/evaluate", layers: netLayers(req), items: 1}
			v = req
		default:
			i := rng.Intn(len(serveMacros))
			j := (i + 1 + rng.Intn(len(serveMacros)-1)) % len(serveMacros)
			v = api.SweepRequest{
				Macros: []string{serveMacros[i], serveMacros[j]}, Networks: []string{"mobilenetv3-large"},
				Layers: 4, MaxMappings: serveMappings,
			}
			r = mixReq{kind: "sweep", path: "/v1/sweep", layers: 4, items: 2}
		}
		r.body, _ = json.Marshal(v)
		out = append(out, r)
	}
	return out
}

// post sends one request and returns the reply body of a 200.
func (x *serveMix) post(path string, body []byte) ([]byte, error) {
	resp, err := x.client.Post(x.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (x *serveMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := x.hs.Shutdown(ctx); err == nil {
		<-x.served
	}
	x.client.CloseIdleConnections()
	x.srv.Close()
}

// The canary sends one warm, one cold and one sweep request. Each reply
// must equal the same request evaluated in-process.
var (
	canaryWarm  = serve.Request{Macro: "base", Network: "mobilenetv3-large", MaxMappings: serveMappings, Seed: 7}
	canaryCold  = serve.Request{Macro: "macro-d", Network: "resnet18", Layers: 8, Scenario: system.WeightStationary.String(), MaxMappings: serveMappings, Seed: 3}
	canarySweep = api.SweepRequest{Macros: []string{"base", "digital-cim"}, Networks: []string{"mobilenetv3-large"}, Layers: 4, MaxMappings: serveMappings}
)

func (x *serveMix) canary() (map[string]float64, error) {
	out := map[string]float64{}
	add := func(name string, wire, local *api.EvalResult) error {
		if !sameResult(wire, local) {
			return fmt.Errorf("%s: HTTP reply %+v differs from in-process %+v", name, wire, local)
		}
		out[name+".energy_j"] = wire.EnergyJ
		out[name+".time_sec"] = wire.TimeSec
		out[name+".macs"] = float64(wire.MACs)
		out[name+".mappings_evaluated"] = float64(wire.MappingsEvaluated)
		return nil
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		req  serve.Request
	}{{"warm", canaryWarm}, {"cold", canaryCold}} {
		body, _ := json.Marshal(c.req)
		b, err := x.post("/v1/evaluate", body)
		if err != nil {
			return nil, err
		}
		var wire api.EvalResult
		if err := json.Unmarshal(b, &wire); err != nil {
			return nil, err
		}
		local, err := x.srv.EvaluateCtx(ctx, c.req)
		if err != nil {
			return nil, err
		}
		if err := add(c.name, &wire, local); err != nil {
			return nil, err
		}
	}
	body, _ := json.Marshal(canarySweep)
	b, err := x.post("/v1/sweep", body)
	if err != nil {
		return nil, err
	}
	var sw api.SweepResponse
	if err := json.Unmarshal(b, &sw); err != nil {
		return nil, err
	}
	reqs := serve.Grid(canarySweep.Macros, canarySweep.Networks, nil, canarySweep.Layers, canarySweep.MaxMappings)
	local, err := x.srv.SweepCtx(ctx, reqs, serveClients, nil)
	if err != nil {
		return nil, err
	}
	if len(sw.Results) != len(local) {
		return nil, fmt.Errorf("sweep: %d results over HTTP, %d in-process", len(sw.Results), len(local))
	}
	for i := range local {
		if err := add(fmt.Sprintf("sweep%d", i), sw.Results[i], local[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sent is one completed request as the client saw it.
type sent struct {
	kind    string
	by      int // client
	end     time.Time
	ms      float64 // client latency
	server  float64 // elapsed_sec of an evaluation, s
	mapping int64
	err     error
}

// serverCounters is a snapshot of the counters a window reads.
type serverCounters struct {
	cache  serve.Stats
	search serve.BudgetStats
	phase  map[string]float64
}

// phaseSums reads the cumulative per-phase seconds from a server's
// cimloop_request_phase_seconds histograms.
func phaseSums(srv *serve.Server) map[string]float64 {
	h := srv.Metrics().HistogramVec("cimloop_request_phase_seconds", "", nil, "phase")
	out := map[string]float64{}
	for _, p := range phases {
		out[p] = h.With(p).Sum()
	}
	return out
}

func (x *serveMix) counters() serverCounters {
	return serverCounters{x.srv.CacheStats(), x.srv.SearchStats(), phaseSums(x.srv)}
}

// drive sends requests from the shared list with two closed-loop clients
// until the window has passed or the list is exhausted; a zero window
// (and quick mode) sends quickRequests instead. Given speedometers, one
// per client, each client times the reference loop before every
// request. With a tracer, each request is recorded as a span.
func (x *serveMix) drive(cfg config, window time.Duration, sps []*speedometer, tr *tracer) []sent {
	end := len(x.reqs)
	if cfg.quick || window == 0 {
		window = 0
		end = min(int(x.next.Load())+quickRequests, end)
	}
	var mu sync.Mutex
	var all []sent
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sent
			for window == 0 || time.Since(start) < window {
				i := int(x.next.Add(1) - 1)
				if i >= end {
					break
				}
				if sps != nil {
					sps[c].sample()
				}
				s := x.send(i, tr)
				s.by = c
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// send posts request i and checks its reply.
func (x *serveMix) send(i int, tr *tracer) sent {
	r := x.reqs[i]
	var id int
	if tr != nil {
		id = tr.begin("http "+r.path, i, 0)
	}
	t := time.Now()
	b, err := x.post(r.path, r.body)
	end := time.Now()
	s := sent{kind: r.kind, end: end, ms: ms(end.Sub(t))}
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		s.err = err
		return s
	}
	var results []*api.EvalResult
	if r.kind == "sweep" {
		var sw api.SweepResponse
		err = json.Unmarshal(b, &sw)
		results = sw.Results
	} else {
		var one api.EvalResult
		err = json.Unmarshal(b, &one)
		results = []*api.EvalResult{&one}
		s.server = one.ElapsedSec
	}
	if err == nil && len(results) != r.items {
		err = fmt.Errorf("%s: %d results, want %d", r.path, len(results), r.items)
	}
	for _, res := range results {
		if err == nil && res == nil {
			err = errors.New("missing result")
		}
		if err == nil {
			err = checkWire(res, serveMappings, r.layers)
		}
		if err == nil {
			s.mapping += res.MappingsEvaluated
		}
	}
	s.err = err
	return s
}

func (x *serveMix) measure(cfg config, window time.Duration) (*windowResult, error) {
	before := x.counters()
	w := newWindow(serveClients)
	start := time.Now()
	all := x.drive(cfg, window, w.sps, nil)
	after := x.counters()
	var ok []sent
	for _, s := range all {
		w.attempted++
		if s.err != nil {
			w.fail(s.err)
			continue
		}
		w.op(s.by, s.kind, time.Duration(s.ms*float64(time.Millisecond)), s.end)
		w.mappings += s.mapping
		ok = append(ok, s)
	}
	w.normalize(start)
	byKind := map[string][]float64{}
	var overhead, server []float64
	for i, s := range ok {
		f := w.lat[i] / w.raw[i]
		byKind[s.kind] = append(byKind[s.kind], w.lat[i])
		if s.kind != "sweep" {
			overhead = append(overhead, f*(s.ms-1000*s.server))
			server = append(server, f*1000*s.server)
		}
	}
	for _, k := range []string{"hit", "miss", "sweep"} {
		w.extra.set(k+"_ms_p50", percentile(byKind[k], 50), "ms")
		w.samples[k] = len(byKind[k])
	}
	w.extra.set("hit_ms_p90", percentile(byKind["hit"], 90), "ms")
	w.extra.set("http.overhead_ms_p50", percentile(overhead, 50), "ms")
	w.extra.set("serve.evaluate_ms_p50", percentile(server, 50), "ms")
	split := splitTime(all)
	setServeCounters(w, before, after, split)
	return w, nil
}

// timeSplit divides the client time of a window's requests between the
// HTTP layer and the server.
type timeSplit struct {
	op, http, server float64 // seconds
}

// splitTime attributes each evaluation's client latency beyond the
// server's elapsed_sec to HTTP; a sweep reply carries no total server
// time, so a sweep counts wholly as server time.
func splitTime(all []sent) timeSplit {
	var t timeSplit
	for _, s := range all {
		if s.err != nil {
			continue
		}
		t.op += s.ms / 1000
		if s.kind == "sweep" {
			t.server += s.ms / 1000
			continue
		}
		t.http += s.ms/1000 - s.server
		t.server += s.server
	}
	return t
}

// setServeCounters sets the per-layer metrics the server's own counters
// give over a window whose client time split as t. The server time its
// phase histograms do not cover is the serve layer's self time: budget
// waits, width tuning and result assembly.
func setServeCounters(w *windowResult, before, after serverCounters, t timeSplit) {
	ops := float64(len(w.lat))
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	if hits+misses > 0 {
		w.layer.set("serve.cache.hit_frac", hits/(hits+misses), "ratio")
	}
	if ops > 0 {
		w.layer.set("serve.cache.compiles_per_op", float64(after.cache.Compiles-before.cache.Compiles)/ops, "count")
		w.layer.set("serve.cache.evictions_per_op", float64(after.cache.Evictions-before.cache.Evictions)/ops, "count")
		w.layer.set("serve.budget.blocked_per_op", float64(after.search.BlockedAcquires-before.search.BlockedAcquires)/ops, "count")
		w.layer.set("serve.search.adaptive_plans_per_op", float64(after.search.AdaptivePlans-before.search.AdaptivePlans)/ops, "count")
	}
	if t.op > 0 {
		self := t.server
		for _, p := range phases {
			d := after.phase[p] - before.phase[p]
			w.layer.set("serve."+p+"_frac", d/t.op, "ratio")
			w.extra.set("serve."+p+"_s", d, "s")
			self -= d
		}
		w.layer.set("serve.self_frac", self/t.op, "ratio")
		w.layer.set("http.self_frac", t.http/t.op, "ratio")
	}
	w.extra.set("serve.mappings_evaluated", float64(after.search.MappingsEvaluated-before.search.MappingsEvaluated), "count")
}

// traced drives the server for another window with every request
// recorded as a client span, and splits the client time between HTTP,
// the server's phases and the serve layer's own time (setServeCounters).
// The server records its phases itself, so the spans add no work.
func (x *serveMix) traced(cfg config, window time.Duration, tr *tracer, base *windowResult) (*layerTimes, error) {
	before := x.counters()
	all := x.drive(cfg, window, nil, tr)
	after := x.counters()
	w := &windowResult{layer: metrics{}, extra: metrics{}}
	for _, s := range all {
		if s.err != nil {
			return nil, s.err
		}
		w.lat = append(w.lat, s.ms)
	}
	t := splitTime(all)
	setServeCounters(w, before, after, t)
	lt := &layerTimes{self: map[string]float64{}, extra: w.layer, opSeconds: t.op, ops: len(all)}
	for _, p := range phases {
		lt.self["serve."+p+"_frac"] = w.layer["serve."+p+"_frac"].Value * t.op
	}
	lt.self["serve.self_frac"] = w.layer["serve.self_frac"].Value * t.op
	lt.self["http.self_frac"] = t.http
	for k := range lt.self {
		delete(w.layer, k)
	}
	lt.baseSeconds = mean(base.raw) / 1000 * float64(len(all))
	return lt, nil
}
