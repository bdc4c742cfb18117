package jobs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// nopJob returns a job body that finishes immediately with result v.
func nopJob(v any) Fn {
	return func(ctx context.Context, report Report) (any, error) { return v, nil }
}

func TestRestoreTerminalJob(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()
	snap := Snapshot{
		ID:         "job-000007",
		Label:      "restored sweep",
		Status:     StatusSucceeded,
		Completed:  3,
		Total:      3,
		Results:    []any{"a", "b", "c"},
		Result:     "table",
		CreatedAt:  time.Now().Add(-time.Hour),
		ElapsedSec: 12.5,
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("job-000007")
	if !ok {
		t.Fatal("restored job must be gettable")
	}
	if got.Status != StatusSucceeded || got.Completed != 3 || got.Result != "table" ||
		got.Label != snap.Label || len(got.Results) != 3 {
		t.Fatalf("restored snapshot = %+v", got)
	}
	if got.ElapsedSec < 12.4 || got.ElapsedSec > 12.6 {
		t.Fatalf("elapsed must survive the round trip, got %g", got.ElapsedSec)
	}
	// Wait returns immediately: the job is already terminal.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, "job-000007"); err != nil {
		t.Fatal(err)
	}
	// The ID counter advanced past the restored ID.
	fresh, err := s.Submit("fresh", 0, nopJob(nil))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "job-000008" {
		t.Fatalf("next ID = %s, want job-000008", fresh.ID)
	}
	// Restoring the same ID again is a silent no-op (first wins).
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if all := s.List(); len(all) != 2 {
		t.Fatalf("duplicate restore must not add a job: %d jobs", len(all))
	}
}

func TestRestoreRejectsNonTerminal(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()
	for _, status := range []Status{StatusQueued, StatusRunning} {
		if err := s.Restore(Snapshot{ID: "job-000001", Status: status}); err == nil {
			t.Fatalf("restore of %s job must fail", status)
		}
	}
	if err := s.Restore(Snapshot{Status: StatusSucceeded}); err == nil {
		t.Fatal("restore without an ID must fail")
	}
}

func TestRestoreRespectsRetention(t *testing.T) {
	s := NewStore(Options{Retention: 2})
	defer s.Close()
	for i := 1; i <= 4; i++ {
		snap := Snapshot{
			ID:        "job-" + string(rune('0'+i)) + "00000",
			Status:    StatusSucceeded,
			CreatedAt: time.Now(),
		}
		if err := s.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.List()); got != 2 {
		t.Fatalf("retention must bound restored jobs too: have %d, want 2", got)
	}
}

func TestSubmitWithIDReplays(t *testing.T) {
	s := NewStore(Options{MaxQueued: 1})
	defer s.Close()
	done := make(chan struct{})
	snap, err := s.SubmitJob(Submission{ID: "job-000042", Label: "replayed", Total: 1, Replay: true,
		Fn: func(ctx context.Context, report Report) (any, error) {
			close(done)
			report(0, "partial", nil)
			return "ok", nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "job-000042" || snap.Status != StatusQueued {
		t.Fatalf("replayed snapshot = %+v", snap)
	}
	<-done
	final, err := s.Wait(context.Background(), "job-000042")
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusSucceeded || final.Result != "ok" {
		t.Fatalf("replayed job finished %+v", final)
	}
	// Duplicate IDs are refused.
	if _, err := s.SubmitJob(Submission{ID: "job-000042", Label: "dup", Fn: nopJob(nil), Replay: true}); err == nil {
		t.Fatal("duplicate ID must fail")
	}
	// New submissions continue after the replayed ID.
	next, err := s.Submit("next", 0, nopJob(nil))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-000043" {
		t.Fatalf("next ID = %s, want job-000043", next.ID)
	}
}

// TestSubmitWithIDBypassesQueueBound: replayed jobs were accepted before
// the restart; the queue bound applies to new admissions only.
func TestSubmitWithIDBypassesQueueBound(t *testing.T) {
	s := NewStore(Options{MaxQueued: 1, MaxRunning: 1})
	defer s.Close()
	block := make(chan struct{})
	var once sync.Once
	blocker := func(ctx context.Context, report Report) (any, error) {
		once.Do(func() { close(block) })
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if _, err := s.SubmitJob(Submission{ID: "job-000001", Label: "running", Fn: blocker, Replay: true}); err != nil {
		t.Fatal(err)
	}
	<-block
	for i := 2; i <= 4; i++ {
		id := []string{"", "", "job-000002", "job-000003", "job-000004"}[i]
		if _, err := s.SubmitJob(Submission{ID: id, Label: "queued replay", Fn: nopJob(nil), Replay: true}); err != nil {
			t.Fatalf("replay %s must bypass the queue bound: %v", id, err)
		}
	}
	// A fresh submission still honors the bound (queue already has 3).
	if _, err := s.Submit("fresh", 0, nopJob(nil)); err != ErrQueueFull {
		t.Fatalf("fresh submission got %v, want ErrQueueFull", err)
	}
}

// TestUserCancelBeatsShutdown: a job the user explicitly cancelled whose
// body unwinds only after Close has begun must still report
// shutdown=false — otherwise the persistence layer would keep its WAL
// and resurrect a deliberately cancelled job on the next boot.
func TestUserCancelBeatsShutdown(t *testing.T) {
	type event struct {
		snap     Snapshot
		shutdown bool
	}
	events := make(chan event, 4)
	s := NewStore(Options{OnTerminal: func(snap Snapshot, shutdown bool) {
		events <- event{snap, shutdown}
	}})
	started := make(chan struct{})
	cancelled := make(chan struct{})
	release := make(chan struct{})
	snap, err := s.Submit("blocker", 0, func(ctx context.Context, report Report) (any, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		<-release // hold the body open until Close is underway
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the cancel must hit a RUNNING job, not a queued one
	if _, ok := s.Cancel(snap.ID); !ok {
		t.Fatal("cancel failed")
	}
	<-cancelled
	closeDone := make(chan struct{})
	go func() { s.Close(); close(closeDone) }()
	// Give Close time to set the closed flag, then let the body return.
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-closeDone
	e := <-events
	if e.snap.ID != snap.ID || e.snap.Status != StatusCancelled {
		t.Fatalf("terminal event = %+v", e)
	}
	if e.shutdown {
		t.Fatal("a user-cancelled job must not be classified as shutdown-interrupted")
	}
}

// TestOnTerminalHook: every terminal transition — normal completion,
// cancel-of-queued, and shutdown — reports exactly once, outside the
// mutex (the callback calls back into the store to prove no deadlock),
// with the shutdown flag distinguishing Close-driven cancellations.
func TestOnTerminalHook(t *testing.T) {
	var mu sync.Mutex
	type event struct {
		snap     Snapshot
		shutdown bool
	}
	var events []event
	var s *Store
	s = NewStore(Options{MaxRunning: 1, OnTerminal: func(snap Snapshot, shutdown bool) {
		s.Stats() // re-entering the store must not deadlock
		mu.Lock()
		defer mu.Unlock()
		events = append(events, event{snap, shutdown})
	}})

	// 1: normal completion.
	done, err := s.Submit("done", 0, nopJob("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), done.ID); err != nil {
		t.Fatal(err)
	}

	// 2: a blocker occupies the runner; 3 queues behind it and is
	// cancelled by the user.
	block := make(chan struct{})
	var once sync.Once
	running, err := s.Submit("running", 0, func(ctx context.Context, report Report) (any, error) {
		once.Do(func() { close(block) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-block
	queued, err := s.Submit("queued", 0, nopJob(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("cancel failed")
	}

	// 4: shutdown cancels the running blocker.
	s.Close()

	mu.Lock()
	defer mu.Unlock()
	byID := map[string]event{}
	for _, e := range events {
		if prev, dup := byID[e.snap.ID]; dup {
			t.Fatalf("job %s reported terminal twice: %+v then %+v", e.snap.ID, prev, e)
		}
		byID[e.snap.ID] = e
	}
	if e := byID[done.ID]; e.snap.Status != StatusSucceeded || e.shutdown {
		t.Fatalf("completion event = %+v", e)
	}
	if e := byID[queued.ID]; e.snap.Status != StatusCancelled || e.shutdown {
		t.Fatalf("user-cancel event = %+v, want cancelled with shutdown=false", e)
	}
	if e := byID[running.ID]; e.snap.Status != StatusCancelled || !e.shutdown {
		t.Fatalf("shutdown event = %+v, want cancelled with shutdown=true", e)
	}
}
