package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/persist"
	"repro/internal/workload"
)

// warmRequest is the request both "processes" of the restart tests issue.
func warmRequest() Request {
	return Request{Macro: "base", Network: "toy", MaxMappings: 4}
}

// warmEngine compiles the engine of warmRequest's macro.
func warmEngine(t *testing.T) *core.Engine {
	t.Helper()
	arch, err := macros.ByName(warmRequest().Macro)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWarmStartRoundTrip is the acceptance path: populate a cache dir,
// "restart" (new Server over the same dir), and verify the first repeated
// request is served entirely from cache — hit counters move, miss stays
// zero, so nothing recompiled.
func TestWarmStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	layers := len(workload.Toy().Layers)

	first := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	if err := first.PersistError(); err != nil {
		t.Fatal(err)
	}
	res1, err := first.EvaluateCtx(context.Background(), warmRequest())
	if err != nil {
		t.Fatal(err)
	}
	first.Close() // flushes the write-behind queue

	second := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	defer second.Close()
	if err := second.PersistError(); err != nil {
		t.Fatal(err)
	}
	ps := second.PersistStats()
	if ps.Warm.Contexts != layers || ps.Warm.Skipped != 0 {
		t.Fatalf("warm stats = %+v, want %d contexts", ps.Warm, layers)
	}
	cs := second.CacheStats()
	if cs.Restored != uint64(layers) || cs.Entries != layers {
		t.Fatalf("cache stats after warm start = %+v, want %d restored entries", cs, layers)
	}

	res2, err := second.EvaluateCtx(context.Background(), warmRequest())
	if err != nil {
		t.Fatal(err)
	}
	cs = second.CacheStats()
	if cs.Misses != 0 {
		t.Fatalf("first repeated request after restart recompiled: stats %+v", cs)
	}
	if want := uint64(layers); cs.Hits != want {
		t.Fatalf("hits = %d, want %d (every layer context)", cs.Hits, want)
	}
	// Restored state answers identically: the columnar codec round-trips
	// every float bit for bit.
	if got, want := sansElapsed(res2), sansElapsed(res1); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored evaluation diverged: %+v vs %+v", got, want)
	}
}

// TestWarmStartOptional: with no dirs configured nothing is persisted,
// nothing scanned, and stats stay disabled — the acceptance criterion
// that persistence is strictly opt-in.
func TestWarmStartOptional(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()
	if ps := srv.PersistStats(); ps.Enabled || ps.Error != "" {
		t.Fatalf("persistence must be disabled by default: %+v", ps)
	}
	if _, err := srv.EvaluateCtx(context.Background(), warmRequest()); err != nil {
		t.Fatal(err)
	}
	if cs := srv.CacheStats(); cs.Restored != 0 {
		t.Fatalf("no restores expected without a cache dir: %+v", cs)
	}
}

// TestWarmStartSurvivesCorruption: a corrupted, a truncated, and a
// foreign-kind file in the cache dir are skipped and deleted on boot;
// intact records still load. Never fatal.
func TestWarmStartSurvivesCorruption(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	if _, err := first.EvaluateCtx(context.Background(), warmRequest()); err != nil {
		t.Fatal(err)
	}
	first.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("expected persisted cache files")
	}
	// Flip a byte in the middle of the first record and truncate a copy of
	// another into a second file.
	victim := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trunc.cws"), data[:10], 0o644); err != nil {
		t.Fatal(err)
	}

	second := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	defer second.Close()
	ps := second.PersistStats()
	if ps.Warm.Skipped != 2 {
		t.Fatalf("warm stats = %+v, want 2 skipped (corrupt + truncated)", ps.Warm)
	}
	if got := ps.Warm.Contexts; got != len(entries)-1 {
		t.Fatalf("loaded %d entries, want %d intact ones", got, len(entries)-1)
	}
	// The bad files are reclaimed.
	for _, name := range []string{victim, filepath.Join(dir, "trunc.cws")} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("%s must be deleted after the failed load", name)
		}
	}
	// And the server still serves.
	if _, err := second.EvaluateCtx(context.Background(), warmRequest()); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartRefusesLegacyContextKind: a well-formed record of the
// retired JSON layer-context kind, stored under the key its content
// fingerprints to, is refused on boot: counted as skipped, never
// admitted, and its file deleted. So are records of the retired job
// kinds (job snapshots and write-ahead entries, sweep checkpoints) left
// in a cache dir.
func TestWarmStartRefusesLegacyContextKind(t *testing.T) {
	scratch := NewServer(BatchOptions{Workers: 1})
	defer scratch.Close()
	eng := warmEngine(t)
	layer := workload.Toy().Layers[0]
	lctx, err := lookupContext(scratch.cache, eng, layer)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(lctx.Export())
	if err != nil {
		t.Fatal(err)
	}
	key := contextKey(ArchFingerprint(eng.Arch()), LayerFingerprint(layer))
	data, err := persist.EncodeRecord(persist.Record{
		Kind: persist.KindLayerContext, Key: key, CostSec: 0.5, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	legacy := []string{filepath.Join(dir, persist.RecordName(persist.KindLayerContext, key))}
	if err := os.WriteFile(legacy[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []persist.Record{
		{Kind: persist.KindJob, Key: "wal|job-000001", Payload: []byte(`{"id":"job-000001"}`)},
		{Kind: persist.KindCheckpoint, Key: "ckpt|job-000001|000000", Payload: []byte("CKP1")},
	} {
		data, err := persist.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, persist.RecordName(rec.Kind, rec.Key))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, name)
	}

	srv := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	defer srv.Close()
	if err := srv.PersistError(); err != nil {
		t.Fatal(err)
	}
	warm := srv.PersistStats().Warm
	if warm.Skipped != len(legacy) || warm.Contexts != 0 {
		t.Fatalf("warm stats = %+v, want the %d legacy records skipped, none admitted", warm, len(legacy))
	}
	for _, name := range legacy {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("legacy record %s must be deleted by the boot scan (stat: %v)", filepath.Base(name), err)
		}
	}
}

// TestWarmStartDropsEngineRecords: a cache dir as older servers wrote
// it, with an engine record (the architecture as JSON, under "eng|" and
// the architecture's fingerprint) next to the layer-context records,
// boots with every engine record counted as skipped and deleted, and
// every context restored; the repeated request then misses nothing and
// answers bit for bit as before. The first server writes no engine
// record.
func TestWarmStartDropsEngineRecords(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	want, err := first.EvaluateCtx(context.Background(), warmRequest())
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	if engines, err := filepath.Glob(filepath.Join(dir, persist.KindEngine.String()+"-*.cws")); err != nil || len(engines) != 0 {
		t.Fatalf("the cache dir holds engine records %v (%v)", engines, err)
	}

	var engineFiles []string
	for _, name := range []string{"base", "macro-b"} {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(arch)
		if err != nil {
			t.Fatal(err)
		}
		key := "eng|" + ArchFingerprint(arch)
		data, err := persist.EncodeRecord(persist.Record{Kind: persist.KindEngine, Key: key, CostSec: 0.5, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, persist.RecordName(persist.KindEngine, key))
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		engineFiles = append(engineFiles, file)
	}

	second := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	defer second.Close()
	layers := len(workload.Toy().Layers)
	if warm := second.PersistStats().Warm; warm.Skipped != len(engineFiles) || warm.Contexts != layers {
		t.Fatalf("warm stats = %+v, want %d engine records skipped and %d contexts", warm, len(engineFiles), layers)
	}
	for _, file := range engineFiles {
		if _, err := os.Stat(file); !os.IsNotExist(err) {
			t.Fatalf("engine record %s must be deleted by the boot scan (stat: %v)", filepath.Base(file), err)
		}
	}
	got, err := second.EvaluateCtx(context.Background(), warmRequest())
	if err != nil {
		t.Fatal(err)
	}
	if cs := second.CacheStats(); cs.Misses != 0 || cs.Hits != uint64(layers) {
		t.Fatalf("the repeated request recompiled: stats %+v", cs)
	}
	if g, w := sansElapsed(got), sansElapsed(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("restored evaluation %+v, first %+v", g, w)
	}
}

// TestWarmStartKeepsCostliest: a cache dir holding more records than
// CacheEntries boots with the costliest records warm. Six layer-context
// records, each with a distinct cost in no relation to its key, boot
// into a cache of three entries: the three costliest contexts then hit
// without a compile, the three cheapest are the ones missing, and every
// record keeps its file.
func TestWarmStartKeepsCostliest(t *testing.T) {
	const capacity = 3
	dir := t.TempDir()
	names := []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim"}
	costs := []float64{0.4, 2.5, 0.1, 1.5, 3.0, 0.9}
	layer := workload.Toy().Layers[0]
	scratch := NewCache(len(names))
	engines := make([]*core.Engine, len(names))
	for i, name := range names {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if engines[i], err = core.NewEngine(arch); err != nil {
			t.Fatal(err)
		}
		lctx, err := lookupContext(scratch, engines[i], layer)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := persist.EncodeLayerContextColumnar(lctx)
		if err != nil {
			t.Fatal(err)
		}
		key := contextKey(ArchFingerprint(arch), LayerFingerprint(layer))
		data, err := persist.EncodeRecord(persist.Record{
			Kind: persist.KindLayerContextCol, Key: key, CostSec: costs[i], Payload: payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, persist.RecordName(persist.KindLayerContextCol, key)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv := NewServer(BatchOptions{Workers: 1, CacheDir: dir, CacheEntries: capacity})
	defer srv.Close()
	if err := srv.PersistError(); err != nil {
		t.Fatal(err)
	}
	cs := srv.CacheStats()
	if cs.Restored != uint64(len(names)) || cs.Entries != capacity || cs.Evictions != uint64(len(names)-capacity) {
		t.Fatalf("cache stats after warm start = %+v, want %d restored, %d held", cs, len(names), capacity)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != len(names) {
		t.Fatalf("cache dir holds %d files (%v), want every record kept", len(files), err)
	}
	// Costliest first, so no miss below evicts a record still to check.
	for _, i := range []int{4, 1, 3} {
		if _, err := lookupContext(srv.cache, engines[i], layer); err != nil {
			t.Fatal(err)
		}
		if cs := srv.CacheStats(); cs.Misses != 0 || cs.Compiles != 0 {
			t.Fatalf("%s (cost %g) was not warm: stats %+v", names[i], costs[i], cs)
		}
	}
	for n, i := range []int{5, 0, 2} {
		if _, err := lookupContext(srv.cache, engines[i], layer); err != nil {
			t.Fatal(err)
		}
		if cs := srv.CacheStats(); cs.Misses != uint64(n+1) {
			t.Fatalf("%s (cost %g) was warm: stats %+v", names[i], costs[i], cs)
		}
	}
}

// TestListenAndServeBindErrorKeepsServerUsable: a failed bind must not
// close the server or its persistence — embedders retry on another port.
func TestListenAndServeBindErrorKeepsServerUsable(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, CacheDir: t.TempDir()})
	if err := srv.ListenAndServe("256.256.256.256:0"); err == nil {
		t.Fatal("expected a bind error")
	}
	if _, err := srv.SweepCtx(context.Background(), []Request{warmRequest()}, 1, nil); err != nil {
		t.Fatalf("server must stay usable after a bind failure: %v", err)
	}
	srv.Close()
	if st := srv.PersistStats().Cache; st.Written == 0 || st.Dropped != 0 {
		t.Fatalf("cache store must stay open after a bind failure: %+v", st)
	}
}

// TestListenAndServeShutdownCancelsSweep: a sweep still running when
// the shutdown grace runs out has its connection closed, which cancels
// its context, so its handler returns instead of evaluating on after
// ListenAndServeCtx has returned.
func TestListenAndServeShutdownCancelsSweep(t *testing.T) {
	defer func(d time.Duration) { shutdownGrace = d }(shutdownGrace)
	shutdownGrace = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ln.Close()

	srv := NewServer(BatchOptions{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServeCtx(ctx, strings.TrimPrefix(base, "http://")) }()
	waitFor(t, "the listener", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil
	})

	// Far more work than the test lasts: every macro, three networks,
	// 100k mappings a layer.
	posted := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(`{
			"macros": ["base", "macro-a", "macro-b", "macro-c", "macro-d"],
			"networks": ["mobilenetv3-large", "resnet18", "transformer"], "max_mappings": 100000}`))
		if err == nil {
			resp.Body.Close()
		}
		posted <- err
	}()
	waitFor(t, "the sweep to start", func() bool { return srv.CacheStats().Misses > 0 })

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("context-driven shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServeCtx did not return after its context was cancelled")
	}
	waitFor(t, "the sweep handler to return", func() bool {
		var text bytes.Buffer
		if err := srv.Metrics().WriteText(&text); err != nil {
			t.Fatal(err)
		}
		return strings.Contains(text.String(), `cimloop_http_requests_total{route="POST /v1/sweep"`)
	})
	if err := <-posted; err == nil {
		t.Fatal("the sweep answered; want its connection closed by the shutdown")
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDriftedContextRecordRecovers: a persisted context whose energy
// tables no longer match the engine's level count (cross-dir copy,
// schema drift) must be recomputed at use, not panic mid-evaluation.
func TestDriftedContextRecordRecovers(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()
	eng := warmEngine(t)
	layer := workload.Toy().Layers[0]
	good, err := lookupContext(srv.cache, eng, layer)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a drifted restore: admit a context with truncated energy
	// tables under the very key the evaluation path will use.
	data := good.Export()
	data.Energies = data.Energies[:len(data.Energies)-1]
	data.InputSlicePMF = append(data.InputSlicePMF[:0:0], data.InputSlicePMF...)
	data.WeightSlicePMF = append(data.WeightSlicePMF[:0:0], data.WeightSlicePMF...)
	bad, err := core.AdoptLayerContext(data)
	if err != nil {
		t.Fatal(err)
	}
	key := contextKey(ArchFingerprint(eng.Arch()), LayerFingerprint(layer))
	srv.cache.invalidate(key, good)
	srv.cache.admit(key, bad)

	got, err := lookupContext(srv.cache, eng, layer)
	if err != nil {
		t.Fatal(err)
	}
	if got.LevelCount() != good.LevelCount() {
		t.Fatalf("drifted context served with %d level tables, want recomputed %d",
			got.LevelCount(), good.LevelCount())
	}
	if _, err := srv.EvaluateCtx(context.Background(), warmRequest()); err != nil {
		t.Fatalf("evaluation after recovery: %v", err)
	}
}

// TestSweepTimeout: a sweep sent with timeout_sec answers 504
// deadline_exceeded instead of running forever. The grid takes about 1 s
// on one 2-CPU worker, 20 times the deadline, so it cannot finish inside
// it.
func TestSweepTimeout(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()
	_, do := testClient(t, srv)
	status, out := do("POST", "/v1/sweep", `{"macros": ["base", "macro-a", "macro-b", "macro-c", "macro-d"],
		"networks": ["mobilenetv3-large", "resnet18", "transformer"], "max_mappings": 20, "timeout_sec": 0.05}`)
	if code, msg := envelope(t, out); status != http.StatusGatewayTimeout || code != "deadline_exceeded" || !strings.Contains(msg, "deadline") {
		t.Fatalf("timed-out sweep: %d %v, want 504 deadline_exceeded", status, out)
	}
}
