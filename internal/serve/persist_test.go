package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/persist"
	"repro/internal/serve/jobs"
	"repro/internal/workload"
)

// warmRequest is the request both "processes" of the restart tests issue.
func warmRequest() Request {
	return Request{Macro: "base", Network: "toy", MaxMappings: 4}
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
	if ps.Warm.Engines != 1 || ps.Warm.Contexts != layers || ps.Warm.Skipped != 0 {
		t.Fatalf("warm stats = %+v, want 1 engine / %d contexts", ps.Warm, layers)
	}
	cs := second.CacheStats()
	if cs.Restored != uint64(1+layers) || cs.Entries != 1+layers {
		t.Fatalf("cache stats after warm start = %+v, want %d restored entries", cs, 1+layers)
	}

	res2, err := second.EvaluateCtx(context.Background(), warmRequest())
	if err != nil {
		t.Fatal(err)
	}
	cs = second.CacheStats()
	if cs.Misses != 0 {
		t.Fatalf("first repeated request after restart recompiled: stats %+v", cs)
	}
	if want := uint64(1 + layers); cs.Hits != want {
		t.Fatalf("hits = %d, want %d (engine + every layer context)", cs.Hits, want)
	}
	// Restored state answers identically (same counts; energies equal to
	// the accumulation ULP, see the persist codec tests).
	if res2.MACs != res1.MACs || res2.MappingsEvaluated != res1.MappingsEvaluated {
		t.Fatalf("restored evaluation diverged: %+v vs %+v", res2, res1)
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
	if got := ps.Warm.Engines + ps.Warm.Contexts; got != len(entries)-1 {
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
// admitted, and its file deleted.
func TestWarmStartRefusesLegacyContextKind(t *testing.T) {
	scratch := NewServer(BatchOptions{Workers: 1})
	defer scratch.Close()
	req := warmRequest()
	arch, err := resolveArch(&req)
	if err != nil {
		t.Fatal(err)
	}
	eng, archFP, err := scratch.cache.EngineCtx(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	layer := workload.Toy().Layers[0]
	lctx, err := scratch.cache.LayerContextCtx(context.Background(), eng, archFP, layer)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(lctx.Export())
	if err != nil {
		t.Fatal(err)
	}
	key := contextKey(archFP, LayerFingerprint(layer))
	data, err := persist.EncodeRecord(persist.Record{
		Kind: persist.KindLayerContext, Key: key, CostSec: 0.5, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	legacy := filepath.Join(dir, persist.RecordName(persist.KindLayerContext, key))
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	defer srv.Close()
	if err := srv.PersistError(); err != nil {
		t.Fatal(err)
	}
	warm := srv.PersistStats().Warm
	if warm.Skipped != 1 || warm.Contexts != 0 {
		t.Fatalf("warm stats = %+v, want the legacy record skipped, none admitted", warm)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy record must be deleted by the boot scan (stat: %v)", err)
	}
}

// TestWarmStartAdmitsEnginesUndecoded: an engine record is admitted by
// its key without decoding its payload, and the first request that hits
// it builds the engine from its own architecture: a record whose payload
// is no architecture at all still serves the repeated request with zero
// misses and the same answer. An engine record under a key no engine
// lookup makes is refused and deleted.
func TestWarmStartAdmitsEnginesUndecoded(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	want, err := first.EvaluateCtx(context.Background(), warmRequest())
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	req := warmRequest()
	arch, err := resolveArch(&req)
	if err != nil {
		t.Fatal(err)
	}
	write := func(key string) string {
		data, err := persist.EncodeRecord(persist.Record{
			Kind: persist.KindEngine, Key: key, CostSec: 0.5, Payload: []byte("not an architecture"),
		})
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, persist.RecordName(persist.KindEngine, key))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return name
	}
	write(engineKey(ArchFingerprint(arch)))
	stray := write(contextKey(ArchFingerprint(arch), LayerFingerprint(workload.Toy().Layers[0])))

	second := NewServer(BatchOptions{Workers: 1, CacheDir: dir})
	defer second.Close()
	if warm := second.PersistStats().Warm; warm.Engines != 1 || warm.Skipped != 1 {
		t.Fatalf("warm stats = %+v, want the engine admitted and the stray record skipped", warm)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("an engine record under a context key must be deleted (stat: %v)", err)
	}
	got, err := second.EvaluateCtx(context.Background(), warmRequest())
	if err != nil {
		t.Fatal(err)
	}
	if cs := second.CacheStats(); cs.Misses != 0 {
		t.Fatalf("the repeated request recompiled: stats %+v", cs)
	}
	if got.EnergyJ != want.EnergyJ || got.MappingsEvaluated != want.MappingsEvaluated {
		t.Fatalf("restored evaluation %+v, first %+v", got, want)
	}
}

// TestWarmStartKeepsCostliest: a cache dir holding more records than
// CacheEntries boots with the costliest records warm. Six engine records,
// each with a distinct cost in no relation to its key, boot into a cache
// of three entries: the three costliest engines then hit without a
// compile, the three cheapest are the ones missing, and every record
// keeps its file.
func TestWarmStartKeepsCostliest(t *testing.T) {
	const capacity = 3
	dir := t.TempDir()
	names := []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim"}
	costs := []float64{0.4, 2.5, 0.1, 1.5, 3.0, 0.9}
	archs := make([]*core.Arch, len(names))
	for i, name := range names {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		archs[i] = arch
		data, err := persist.EncodeRecord(persist.Record{
			Kind: persist.KindEngine, Key: engineKey(ArchFingerprint(arch)), CostSec: costs[i], Payload: []byte(name),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, persist.RecordName(persist.KindEngine, engineKey(ArchFingerprint(arch)))), data, 0o644); err != nil {
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
		if _, _, err := srv.cache.EngineCtx(context.Background(), archs[i]); err != nil {
			t.Fatal(err)
		}
		if cs := srv.CacheStats(); cs.Misses != 0 || cs.Compiles != 0 {
			t.Fatalf("%s (cost %g) was not warm: stats %+v", names[i], costs[i], cs)
		}
	}
	for n, i := range []int{5, 0, 2} {
		if _, _, err := srv.cache.EngineCtx(context.Background(), archs[i]); err != nil {
			t.Fatal(err)
		}
		if cs := srv.CacheStats(); cs.Misses != uint64(n+1) {
			t.Fatalf("%s (cost %g) was warm: stats %+v", names[i], costs[i], cs)
		}
	}
}

// TestJobSnapshotsSurviveRestart: a job that finished before the restart
// is still answerable — /v1/jobs/{id} returns its terminal snapshot.
func TestJobSnapshotsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	snap, err := first.SubmitSweepOpts([]Request{warmRequest()}, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := first.WaitJob(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusSucceeded {
		t.Fatalf("job finished %s", final.Status)
	}
	first.Close()

	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	defer second.Close()
	ps := second.PersistStats()
	if ps.Warm.Jobs != 1 || ps.Warm.Replayed != 0 {
		t.Fatalf("warm stats = %+v, want 1 restored job", ps.Warm)
	}
	got, ok := second.Job(snap.ID)
	if !ok {
		t.Fatalf("restarted instance must answer for job %s", snap.ID)
	}
	if got.Status != jobs.StatusSucceeded || got.Completed != 1 || got.Total != 1 {
		t.Fatalf("restored snapshot = %+v", got)
	}
	if table, ok := got.Result.(string); !ok || !strings.Contains(table, "base/toy") {
		t.Fatalf("restored job must keep its rendered result, got %#v", got.Result)
	}
	if got.Label != final.Label || got.ElapsedSec <= 0 {
		t.Fatalf("restored snapshot lost metadata: %+v", got)
	}
}

// TestQueuedJobsReplayAfterRestart: jobs accepted but not finished when
// the process stops keep their write-ahead records and run to completion
// on the next boot under their original IDs.
func TestQueuedJobsReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, JobsDir: dir, MaxRunningJobs: 1})
	// A deep grid keeps the runner busy while two more jobs queue behind
	// it; Close interrupts all three mid-flight.
	big := Grid([]string{"base", "macro-b"}, []string{"mobilenetv3-large"}, nil, 0, 8)
	ids := make([]string, 0, 3)
	for _, reqs := range [][]Request{big, {warmRequest()}, {warmRequest()}} {
		snap, err := first.SubmitSweepOpts(reqs, SweepJobOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	first.Close() // cancels all three; their WALs survive shutdown

	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir, MaxRunningJobs: 1})
	defer second.Close()
	ps := second.PersistStats()
	if ps.Warm.Replayed != 3 || ps.Warm.Jobs != 0 {
		t.Fatalf("warm stats = %+v, want 3 replayed jobs", ps.Warm)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, id := range ids[1:] { // the small replays must finish
		final, err := second.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != jobs.StatusSucceeded {
			t.Fatalf("replayed job %s finished %s (%s)", id, final.Status, final.Error)
		}
	}
	// New submissions never collide with replayed IDs.
	snap, err := second.SubmitSweepOpts([]Request{warmRequest()}, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if snap.ID == id {
			t.Fatalf("new job reused replayed ID %s", id)
		}
	}
}

// TestFinishedJobRetiresWAL: once a job completes, its WAL record is
// replaced by the terminal snapshot — a restart restores, not re-runs.
func TestFinishedJobRetiresWAL(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	snap, err := srv.SubmitSweepOpts([]Request{warmRequest()}, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WaitJob(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	defer second.Close()
	if ps := second.PersistStats(); ps.Warm.Replayed != 0 || ps.Warm.Jobs != 1 {
		t.Fatalf("finished job must restore (not replay): %+v", ps.Warm)
	}
}

// TestProgrammaticRequestsNotWALLogged: requests carrying prebuilt
// *Arch values cannot survive the WAL's JSON round trip, so such jobs
// are not write-ahead-logged — a restart must not replay them as
// unresolvable (failed) jobs; their terminal snapshots still persist.
func TestProgrammaticRequestsNotWALLogged(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	req := warmRequest()
	arch, err := resolveArch(&req)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := first.SubmitSweepOpts([]Request{{Arch: arch, Network: "toy", MaxMappings: 2}}, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := first.WaitJob(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusSucceeded {
		t.Fatalf("job finished %s (%s)", final.Status, final.Error)
	}
	first.Close()

	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	defer second.Close()
	ps := second.PersistStats()
	if ps.Warm.Replayed != 0 || ps.Warm.Jobs != 1 || ps.Warm.Skipped != 0 {
		t.Fatalf("warm stats = %+v, want 1 restored snapshot and no replay", ps.Warm)
	}
	if got, ok := second.Job(snap.ID); !ok || got.Status != jobs.StatusSucceeded {
		t.Fatalf("terminal snapshot must survive: ok=%v snap=%+v", ok, got)
	}
}

// TestCancelledQueuedJobRetiresWAL: a user cancel (not a shutdown) of a
// queued job persists the cancelled snapshot and drops the WAL, so the
// job does not rise from the dead on restart.
func TestCancelledQueuedJobRetiresWAL(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, JobsDir: dir, MaxRunningJobs: 1})
	// Occupy the single runner so the next submission stays queued.
	big := Grid([]string{"base", "macro-b"}, []string{"mobilenetv3-large"}, nil, 0, 8)
	if _, err := first.SubmitSweepOpts(big, SweepJobOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	queued, err := first.SubmitSweepOpts([]Request{warmRequest()}, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if snap, ok := first.CancelJob(queued.ID); !ok || snap.Status != jobs.StatusCancelled {
		t.Fatalf("cancel of queued job: ok=%v snap=%+v", ok, snap)
	}
	first.Close()

	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir, MaxRunningJobs: 1})
	defer second.Close()
	got, ok := second.Job(queued.ID)
	if !ok || got.Status != jobs.StatusCancelled {
		t.Fatalf("cancelled job must restore as cancelled: ok=%v snap=%+v", ok, got)
	}
	if ps := second.PersistStats(); ps.Warm.Replayed != 1 {
		// Only the interrupted big job replays; the cancelled one must not.
		t.Fatalf("warm stats = %+v, want exactly the interrupted job replayed", ps.Warm)
	}
}

// TestSharedDirRejected: pointing cache and jobs persistence at one
// directory would make each boot scan delete the other store's records;
// the server must refuse the configuration instead.
func TestSharedDirRejected(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(BatchOptions{CacheDir: dir, JobsDir: dir + string(os.PathSeparator)})
	defer srv.Close()
	if err := srv.PersistError(); err == nil {
		t.Fatal("shared cache/jobs dir must be rejected")
	}
	if ps := srv.PersistStats(); ps.Enabled {
		t.Fatalf("neither store may open on a shared dir: %+v", ps)
	}
	// The server itself still serves, just without durability.
	if _, err := srv.EvaluateCtx(context.Background(), warmRequest()); err != nil {
		t.Fatal(err)
	}
}

// TestJobRetentionPrunesDisk: evicting a terminal job from the in-memory
// store also deletes its on-disk snapshot, so the jobs dir is bounded by
// the same retention — not an append-only log.
func TestJobRetentionPrunesDisk(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(BatchOptions{Workers: 1, JobsDir: dir, JobRetention: 2})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 5; i++ {
		snap, err := srv.SubmitSweepOpts([]Request{warmRequest()}, SweepJobOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.WaitJob(ctx, snap.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	srv.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("jobs dir holds %d files, want 2 (retention bound)", len(entries))
	}
	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir, JobRetention: 2})
	defer second.Close()
	if ps := second.PersistStats(); ps.Warm.Jobs != 2 {
		t.Fatalf("warm stats = %+v, want the 2 retained jobs", ps.Warm)
	}
	if _, ok := second.Job(ids[len(ids)-1]); !ok {
		t.Fatal("the newest job must survive retention")
	}
	if _, ok := second.Job(ids[0]); ok {
		t.Fatal("the oldest job must have been pruned from disk")
	}
}

// TestListenAndServeBindErrorKeepsServerUsable: a failed bind must not
// close the job store or persistence — embedders retry on another port.
func TestListenAndServeBindErrorKeepsServerUsable(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()
	if err := srv.ListenAndServe("256.256.256.256:0"); err == nil {
		t.Fatal("expected a bind error")
	}
	if _, err := srv.SubmitSweepOpts([]Request{warmRequest()}, SweepJobOptions{Workers: 1}); err != nil {
		t.Fatalf("job store must stay open after a bind failure: %v", err)
	}
}

// TestDriftedContextRecordRecovers: a persisted context whose energy
// tables no longer match the engine's level count (cross-dir copy,
// schema drift) must be recomputed at use, not panic mid-evaluation.
func TestDriftedContextRecordRecovers(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()
	req := warmRequest()
	arch, err := resolveArch(&req)
	if err != nil {
		t.Fatal(err)
	}
	eng, archFP, err := srv.cache.EngineCtx(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	layer := workload.Toy().Layers[0]
	good, err := srv.cache.LayerContextCtx(context.Background(), eng, archFP, layer)
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
	key := contextKey(archFP, LayerFingerprint(layer))
	srv.cache.invalidate(key, good)
	srv.cache.admit(key, bad)

	got, err := srv.cache.LayerContextCtx(context.Background(), eng, archFP, layer)
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

// TestSweepTimeout: a sweep submitted with a deadline fails with a
// deadline error instead of running forever. The grid takes about 1 s
// on one 2-CPU worker, 20 times the deadline, so the job cannot finish
// inside it.
func TestSweepTimeout(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, MaxRunningJobs: 1})
	defer srv.Close()
	big := Grid([]string{"base", "macro-a", "macro-b", "macro-c", "macro-d"},
		[]string{"mobilenetv3-large", "resnet18", "transformer"}, nil, 0, 20)
	snap, err := srv.SubmitSweepOpts(big, SweepJobOptions{Workers: 1, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := srv.WaitJob(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("timed-out job = %+v, want failed with a deadline error", final)
	}
}
