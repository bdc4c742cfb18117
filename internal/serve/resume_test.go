package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/serve/jobs"
)

// The checkpoint-resume property: kill a sweep job at an item boundary,
// restart over the same jobs dir, and the replay (a) re-evaluates ONLY
// the unfinished grid items — measured by the restarted server's
// lifetime mappings-evaluated counter — and (b) merges checkpointed and
// fresh results into a table bit-identical to an uninterrupted run.

// resumeReqs is the property suite's work list: five deterministic
// (seeded) items, heavy enough that the test can reliably interrupt
// between boundaries.
func resumeReqs() []Request {
	return []Request{
		{Tag: "r0", Macro: "base", Network: "mobilenetv3-large", MaxMappings: 4, Seed: 1},
		{Tag: "r1", Macro: "macro-b", Network: "mobilenetv3-large", MaxMappings: 4, Seed: 2},
		{Tag: "r2", Macro: "base", Network: "resnet18", MaxMappings: 4, Seed: 3},
		{Tag: "r3", Macro: "macro-b", Network: "resnet18", MaxMappings: 4, Seed: 4},
		{Tag: "r4", Macro: "base", Network: "toy", MaxMappings: 4, Seed: 5},
	}
}

func TestCheckpointResumeOnlyUnfinished(t *testing.T) {
	reqs := resumeReqs()

	// Uninterrupted reference run: per-item mapping counts and the
	// merged table every interrupted run must reproduce exactly.
	ref := NewServer(BatchOptions{Workers: 1})
	refResults, err := ref.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	refTotal := ref.SearchStats().MappingsEvaluated
	refTable := SweepTable(refResults).String()
	ref.Close()
	if refTotal <= 0 {
		t.Fatalf("reference run evaluated no mappings")
	}

	// Kill after k completed items (k varies the boundary; the write
	// queue may checkpoint a few more before Close lands).
	for _, k := range []int{1, 3} {
		t.Run(string(rune('0'+k))+"-items-done", func(t *testing.T) {
			dir := t.TempDir()
			first := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
			snap, err := first.SubmitSweepOpts(reqs, SweepJobOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(120 * time.Second)
			for {
				cur, ok := first.Job(snap.ID)
				if !ok {
					t.Fatalf("job %s vanished", snap.ID)
				}
				if cur.Completed >= k {
					break
				}
				if cur.Status != jobs.StatusQueued && cur.Status != jobs.StatusRunning {
					t.Fatalf("job went terminal before the kill point: %+v", cur)
				}
				if time.Now().After(deadline) {
					t.Fatalf("job never reached %d items: %+v", k, cur)
				}
				time.Sleep(2 * time.Millisecond)
			}
			first.Close() // "kill": WAL + checkpoints survive shutdown

			second := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
			defer second.Close()
			ps := second.PersistStats()
			if ps.Warm.Replayed != 1 {
				t.Fatalf("warm stats = %+v, want 1 replayed job", ps.Warm)
			}
			// Every item reported before the kill was checkpointed and
			// restored; with one worker items finish in feed order, so
			// the restored set is a prefix.
			c := ps.Warm.Checkpoints
			if c < k || c >= len(reqs) {
				t.Fatalf("restored %d checkpoints, want in [%d, %d)", c, k, len(reqs))
			}

			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			final, err := second.WaitJob(ctx, snap.ID)
			if err != nil {
				t.Fatal(err)
			}
			if final.Status != jobs.StatusSucceeded || final.Completed != len(reqs) {
				t.Fatalf("replayed job = %+v", final)
			}

			// (a) Only the unfinished suffix was re-evaluated: the new
			// process's mapping counter equals the reference total minus
			// the checkpointed prefix's contribution, mapping for mapping.
			var restored int64
			for _, r := range refResults[:c] {
				restored += r.MappingsEvaluated
			}
			if got, want := second.SearchStats().MappingsEvaluated, refTotal-restored; got != want {
				t.Fatalf("resumed run evaluated %d mappings, want %d (reference %d - %d restored)",
					got, want, refTotal, restored)
			}

			// (b) The merged result is bit-identical to the uninterrupted
			// run's table.
			table, ok := final.Result.(string)
			if !ok {
				t.Fatalf("replayed job result is %T, want rendered table", final.Result)
			}
			if table != refTable {
				t.Fatalf("merged table diverged from uninterrupted run:\n got:\n%s\nwant:\n%s", table, refTable)
			}
		})
	}
}

// TestCheckpointsRetiredWithJob: once the resumed job finishes, its
// checkpoint records are deleted — a further restart restores the
// terminal snapshot without replaying or re-restoring anything.
func TestCheckpointsRetiredWithJob(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	snap, err := first.SubmitSweepOpts(resumeReqs(), SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, _ := first.Job(snap.ID)
		if cur.Completed >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	first.Close()

	second := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	if ps := second.PersistStats(); ps.Warm.Checkpoints < 1 {
		t.Fatalf("warm stats = %+v, want restored checkpoints", ps.Warm)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := second.WaitJob(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}
	second.Close()

	third := NewServer(BatchOptions{Workers: 1, JobsDir: dir})
	defer third.Close()
	ps := third.PersistStats()
	if ps.Warm.Jobs != 1 || ps.Warm.Replayed != 0 || ps.Warm.Checkpoints != 0 || ps.Warm.Skipped != 0 {
		t.Fatalf("after completion the WAL and checkpoints must be retired: %+v", ps.Warm)
	}
	got, ok := third.Job(snap.ID)
	if !ok || got.Status != jobs.StatusSucceeded || got.Completed != len(resumeReqs()) {
		t.Fatalf("restored snapshot = %+v", got)
	}
}

// TestLegacyJobRecordsBoot: a jobs dir written before the queue became a
// single FIFO — records that still carry "priority", "tenant" and
// "resumes" — boots cleanly. The terminal snapshot restores under its
// original ID; the WAL jobs replay in ID order (the later two were once
// interactive and would have jumped the queue) and skip their
// checkpointed items.
func TestLegacyJobRecordsBoot(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put := func(kind persist.Kind, key, payload string) {
		st.PutBlocking(kind, key, 0, func() ([]byte, error) { return []byte(payload), nil })
	}
	put(persist.KindJob, jobSnapKey("job-000003"), `{"id": "job-000003", "label": "sweep of 1 requests",
		"status": "succeeded", "priority": "interactive", "tenant": "team-a", "resumes": 2,
		"version": 7, "completed": 1, "total": 1, "result": "legacy table",
		"created_at": "2026-07-26T12:00:00Z", "elapsed_sec": 1.5}`)
	req := `{"macro": "base", "network": "toy", "max_mappings": 2, "layers": 1}`
	put(persist.KindJob, jobWALKey("job-000004"), `{"id": "job-000004",
		"requests": [`+req+`, `+req+`, `+req+`], "workers": 1,
		"priority": "batch", "tenant": "team-a", "created_at": "2026-07-26T12:00:01Z"}`)
	for _, id := range []string{"job-000005", "job-000006"} {
		put(persist.KindJob, jobWALKey(id), `{"id": "`+id+`", "requests": [`+req+`],
			"priority": "interactive", "tenant": "team-b", "created_at": "2026-07-26T12:00:02Z"}`)
	}
	for i := 0; i < 2; i++ {
		rec, err := persist.EncodeCheckpointRecord(persist.CheckpointRecord{
			JobID: "job-000004", Index: i, Payload: []byte(fmt.Sprintf(`{"tag": "checkpoint-%d"}`, i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		put(persist.KindCheckpoint, ckptKey("job-000004", i), string(rec))
	}
	st.Close()

	srv := NewServer(BatchOptions{Workers: 1, JobsDir: dir, MaxRunningJobs: 1})
	defer srv.Close()
	warm := srv.PersistStats().Warm
	if warm.Jobs != 1 || warm.Replayed != 3 || warm.Checkpoints != 2 || warm.Skipped != 0 {
		t.Fatalf("warm stats = %+v, want 1 restored, 3 replayed, 2 checkpoints", warm)
	}

	snap, ok := srv.Job("job-000003")
	if !ok || snap.Status != jobs.StatusSucceeded || snap.Version != 7 || snap.Result != "legacy table" {
		t.Fatalf("restored snapshot = %+v", snap)
	}

	// FIFO: the last job leaves the queue only after both earlier ones
	// have finished.
	awaitDispatched(t, srv, "job-000006")
	for _, id := range []string{"job-000004", "job-000005"} {
		if cur, _ := srv.Job(id); cur.Status != jobs.StatusSucceeded {
			t.Fatalf("job-000006 dispatched while %s was %s: FIFO broken", id, cur.Status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	first, err := srv.WaitJob(ctx, "job-000004")
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != jobs.StatusSucceeded || first.Completed != 3 {
		t.Fatalf("replayed job-000004 = %+v", first)
	}
	// Checkpointed items come back as restored, not re-evaluated: only
	// the third item ran, so its tag is the computed one.
	for i, want := range []string{"checkpoint-0", "checkpoint-1", "base/toy"} {
		if res, _ := first.Results[i].(*Result); res == nil || res.Tag != want {
			t.Fatalf("job-000004 item %d = %+v, want tag %q", i, first.Results[i], want)
		}
	}
	if last, err := srv.WaitJob(ctx, "job-000006"); err != nil || last.Status != jobs.StatusSucceeded {
		t.Fatalf("replayed job-000006 = %+v, %v", last, err)
	}
	// New submissions continue after the replayed IDs.
	next, err := srv.SubmitSweepOpts([]Request{warmRequest()}, SweepJobOptions{})
	if err != nil || next.ID != "job-000007" {
		t.Fatalf("next submission = %+v, %v", next, err)
	}
}
