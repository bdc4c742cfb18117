package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve/jobs"
)

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, srv *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		if snap.Status != jobs.StatusQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestSubmitSweepJobLifecycle submits a real sweep as a job and follows
// it to completion: per-item progress, partial results, and the rendered
// table as the final result.
func TestSubmitSweepJobLifecycle(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 2, MaxMappings: 2})
	defer srv.Close()

	reqs := Grid([]string{"base", "macro-b"}, []string{"toy"}, nil, 0, 2)
	snap, err := srv.SubmitSweepOpts(reqs, SweepJobOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total != len(reqs) || snap.ID == "" {
		t.Fatalf("initial snapshot: %+v", snap)
	}
	final, err := srv.WaitJob(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusSucceeded {
		t.Fatalf("status %s (%+v)", final.Status, final)
	}
	if final.Completed != len(reqs) || final.FirstError != "" {
		t.Fatalf("progress: %+v", final)
	}
	if len(final.Results) != len(reqs) {
		t.Fatalf("partial results: %d, want %d", len(final.Results), len(reqs))
	}
	for i, p := range final.Results {
		r, ok := p.(*Result)
		if !ok || r == nil || r.EnergyJ <= 0 {
			t.Fatalf("partial %d: %#v", i, p)
		}
	}
	table, ok := final.Result.(string)
	if !ok || !strings.Contains(table, "Batch sweep") {
		t.Fatalf("final result: %#v", final.Result)
	}
}

// TestSubmitSweepReportsPerItemErrors checks a bad grid item surfaces as
// the job's first error without failing the job.
func TestSubmitSweepReportsPerItemErrors(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, MaxMappings: 2})
	defer srv.Close()
	reqs := []Request{
		{Macro: "base", Network: "toy"},
		{Macro: "no-such-macro", Network: "toy"},
	}
	snap, err := srv.SubmitSweepOpts(reqs, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := srv.WaitJob(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusSucceeded {
		t.Fatalf("status %s", final.Status)
	}
	if final.FirstError == "" || !strings.Contains(final.FirstError, "no-such-macro") {
		t.Fatalf("first error %q", final.FirstError)
	}
	if final.Completed != 2 {
		t.Fatalf("completed %d", final.Completed)
	}
}

// TestCancelJobStopsInFlightWork cancels a heavyweight running sweep and
// checks the cancellation reaches in-flight layer searches: the job lands
// in the cancelled state with the grid unfinished. The sweep is sized so
// that finishing it would take orders of magnitude longer than the
// cancel round trip.
func TestCancelJobStopsInFlightWork(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1})
	defer srv.Close()

	// 4 requests x full ResNet18 x 400-mapping budget: far more work
	// than can finish between "running" and the cancel below.
	reqs := Grid([]string{"base", "macro-a", "macro-b", "macro-d"},
		[]string{"resnet18"}, nil, 0, 400)
	snap, err := srv.SubmitSweepOpts(reqs, SweepJobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, srv, snap.ID)
	if _, ok := srv.CancelJob(snap.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := srv.WaitJob(ctx, snap.ID)
	if err != nil {
		t.Fatalf("job did not stop after cancellation: %v", err)
	}
	if final.Status != jobs.StatusCancelled {
		t.Fatalf("status %s, want cancelled", final.Status)
	}
	if final.Completed >= final.Total {
		t.Fatalf("cancelled job finished the whole grid: %d/%d", final.Completed, final.Total)
	}
}

// TestSweepCtxStopsDispatchOnCancel is the regression test for the
// feeder bug: cancelling the parent context mid-sweep must stop
// dispatching remaining grid items instead of draining the whole slice.
func TestSweepCtxStopsDispatchOnCancel(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, MaxMappings: 2})
	reqs := Grid([]string{"base"}, []string{"toy"}, nil, 0, 2)
	for len(reqs) < 16 {
		reqs = append(reqs, reqs[0])
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completions atomic.Int32
	results, err := srv.SweepCtx(ctx, reqs, 1, func(i int, r *Result) {
		if completions.Add(1) == 1 {
			cancel() // cancel as soon as the first item lands
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	filled := 0
	for _, r := range results {
		if r != nil {
			filled++
		}
	}
	// One item completed before the cancel; with a single worker at most
	// one more was already dispatched. The rest must never run.
	if filled > 3 {
		t.Fatalf("%d of %d grid items evaluated after cancellation", filled, len(reqs))
	}
	if filled == 0 {
		t.Fatal("no items completed before cancellation")
	}
}

// TestSweepCtxMatchesSweep checks the ctx-aware path is the same sweep:
// identical results, request order preserved, onDone streamed once per
// item.
func TestSweepCtxMatchesSweep(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 4, MaxMappings: 2})
	reqs := Grid([]string{"base", "macro-b"}, []string{"toy"}, nil, 0, 2)
	want, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]int{}
	got, err := srv.SweepCtx(context.Background(), reqs, 4, func(i int, r *Result) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].EnergyJ != want[i].EnergyJ || got[i].Tag != want[i].Tag {
			t.Fatalf("result %d diverged: %+v vs %+v", i, got[i], want[i])
		}
		if seen[i] != 1 {
			t.Fatalf("item %d reported %d times", i, seen[i])
		}
	}
}

// blockingJob occupies a job-store runner until released, so tests can
// saturate the queue deterministically.
func blockingJob(t *testing.T, srv *Server) (id string, release func()) {
	t.Helper()
	ch := make(chan struct{})
	snap, err := srv.jobs.Submit("blocker", 0, func(ctx context.Context, report jobs.Report) (any, error) {
		select {
		case <-ch:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	return snap.ID, func() { once.Do(func() { close(ch) }) }
}

// TestSubmitSweepBackpressure checks a saturated pool rejects new jobs
// with jobs.ErrQueueFull instead of queueing unboundedly.
func TestSubmitSweepBackpressure(t *testing.T) {
	srv := NewServer(BatchOptions{MaxRunningJobs: 1, MaxQueuedJobs: 1})
	defer srv.Close()

	runningID, release := blockingJob(t, srv)
	defer release()
	waitRunning(t, srv, runningID)
	_, releaseQueued := blockingJob(t, srv) // fills the single queue slot
	defer releaseQueued()

	reqs := Grid([]string{"base"}, []string{"toy"}, nil, 0, 2)
	if _, err := srv.SubmitSweepOpts(reqs, SweepJobOptions{Workers: 1}); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("err = %v, want jobs.ErrQueueFull", err)
	}
	if srv.RetryAfter() <= 0 {
		t.Fatalf("retry-after %v", srv.RetryAfter())
	}
}
