package serve

import (
	"context"
	"testing"
	"time"

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
