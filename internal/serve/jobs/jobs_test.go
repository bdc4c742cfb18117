package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitStatus polls until the job reaches want (terminal states use Wait).
func waitStatus(t *testing.T, s *Store, id string, want Status) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared while waiting for %s", id, want)
		}
		if snap.Status == want {
			return snap
		}
		if snap.Status.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", id, snap.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Snapshot{}
}

func TestJobLifecycleAndProgress(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()

	snap, err := s.Submit("grid", 3, func(ctx context.Context, report Report) (any, error) {
		report(0, "r0", nil)
		report(1, nil, errors.New("item 1 exploded"))
		report(2, "r2", nil)
		return "final", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Total != 3 {
		t.Fatalf("bad initial snapshot: %+v", snap)
	}
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusSucceeded {
		t.Fatalf("status %s, want succeeded (%+v)", final.Status, final)
	}
	if final.Completed != 3 || final.Result != "final" {
		t.Fatalf("progress: %+v", final)
	}
	if final.FirstError != "item 1 exploded" {
		t.Fatalf("first error %q", final.FirstError)
	}
	if len(final.Results) != 3 || final.Results[0] != "r0" || final.Results[2] != "r2" {
		t.Fatalf("partials: %v", final.Results)
	}
	if final.ElapsedSec < 0 {
		t.Fatalf("elapsed %g", final.ElapsedSec)
	}
}

func TestJobFailure(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()
	snap, err := s.Submit("boom", 1, func(ctx context.Context, report Report) (any, error) {
		return nil, errors.New("job body failed")
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed || final.Error != "job body failed" {
		t.Fatalf("final: %+v", final)
	}
}

func TestMonotonicIDs(t *testing.T) {
	s := NewStore(Options{MaxQueued: 64})
	defer s.Close()
	var prev string
	for i := 0; i < 5; i++ {
		snap, err := s.Submit("seq", 0, func(ctx context.Context, report Report) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if prev != "" && snap.ID <= prev {
			t.Fatalf("IDs not monotonic: %s then %s", prev, snap.ID)
		}
		prev = snap.ID
	}
}

// TestQueueFullBackpressure checks the bounded pending queue: with one
// runner blocked, MaxQueued jobs queue and the next submit is rejected
// with ErrQueueFull — without blocking.
func TestQueueFullBackpressure(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1, MaxQueued: 2, RetryAfter: 7 * time.Second})
	defer s.Close()

	release := make(chan struct{})
	blocker := func(ctx context.Context, report Report) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	running, err := s.Submit("running", 0, blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, running.ID, StatusRunning)

	for i := 0; i < 2; i++ {
		if _, err := s.Submit("queued", 0, blocker); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	_, err = s.Submit("rejected", 0, blocker)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if s.RetryAfter() != 7*time.Second {
		t.Fatalf("retry-after %v", s.RetryAfter())
	}
	st := s.Stats()
	if st.Queued != 2 || st.Running != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Draining the pool readmits submissions.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Submit("readmitted", 0, func(ctx context.Context, report Report) (any, error) {
			return nil, nil
		}); err == nil {
			break
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelQueuedFreesSlot checks cancelling a queued job releases its
// pending-queue slot immediately — a new submission is admitted while
// the runner is still busy, not once the runner would have reached the
// cancelled job.
func TestCancelQueuedFreesSlot(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1, MaxQueued: 1})
	defer s.Close()
	release := make(chan struct{})
	defer close(release)
	blocker := func(ctx context.Context, report Report) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	running, err := s.Submit("running", 0, blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, running.ID, StatusRunning)
	queued, err := s.Submit("queued", 0, blocker)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("rejected", 0, blocker); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if snap, ok := s.Cancel(queued.ID); !ok || snap.Status != StatusCancelled {
		t.Fatalf("cancel queued: %v %+v", ok, snap)
	}
	// The slot is free right now, with the runner still blocked.
	if _, err := s.Submit("admitted", 0, blocker); err != nil {
		t.Fatalf("submit after cancelling the queued job: %v", err)
	}
}

// TestListOmitsPayloads checks List returns summaries (no per-item
// results, no final result) while Get keeps the full payload.
func TestListOmitsPayloads(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()
	snap, err := s.Submit("payload", 1, func(ctx context.Context, report Report) (any, error) {
		report(0, "partial", nil)
		return "final", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 1 {
		t.Fatalf("listed %d jobs", len(list))
	}
	if list[0].Results != nil || list[0].Result != nil {
		t.Fatalf("list summary carries payloads: %+v", list[0])
	}
	if list[0].Completed != 1 || list[0].Status != StatusSucceeded {
		t.Fatalf("list summary lost progress: %+v", list[0])
	}
	full, ok := s.Get(snap.ID)
	if !ok || full.Result != "final" || len(full.Results) != 1 || full.Results[0] != "partial" {
		t.Fatalf("get lost payloads: %+v", full)
	}
}

// TestCancelRunning checks cancelling a running job cancels its context
// and lands it in the cancelled state.
func TestCancelRunning(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()
	started := make(chan struct{})
	snap, err := s.Submit("long", 0, func(ctx context.Context, report Report) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := s.Cancel(snap.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", final.Status)
	}
	// The body's context error is not surfaced as a job failure.
	if final.Error != "" {
		t.Fatalf("cancelled job carries error %q", final.Error)
	}
}

// TestCancelQueued checks a queued job is cancelled without ever running.
func TestCancelQueued(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1, MaxQueued: 4})
	defer s.Close()
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit("blocker", 0, func(ctx context.Context, report Report) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ran := false
	queued, err := s.Submit("victim", 0, func(ctx context.Context, report Report) (any, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Cancel(queued.ID)
	if !ok || got.Status != StatusCancelled {
		t.Fatalf("cancel queued: %v %+v", ok, got)
	}
	if _, err := s.Wait(context.Background(), queued.ID); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled-while-queued job body ran")
	}
}

// TestDuplicateCancelIdempotent checks repeated cancels (including after
// the terminal state) are harmless no-ops.
func TestDuplicateCancelIdempotent(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()
	started := make(chan struct{})
	snap, err := s.Submit("dup", 0, func(ctx context.Context, report Report) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 3; i++ {
		if _, ok := s.Cancel(snap.ID); !ok {
			t.Fatalf("cancel %d: not found", i)
		}
	}
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("status %s", final.Status)
	}
	// Cancelling a finished job stays cancelled and keeps reporting ok.
	for i := 0; i < 3; i++ {
		got, ok := s.Cancel(snap.ID)
		if !ok || got.Status != StatusCancelled {
			t.Fatalf("post-terminal cancel %d: %v %+v", i, ok, got)
		}
	}
	if _, ok := s.Cancel("job-999999"); ok {
		t.Fatal("cancel of unknown job reported ok")
	}
}

// TestRetentionEviction checks terminal jobs beyond the bound are evicted
// oldest-first while queued/running jobs survive.
func TestRetentionEviction(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1, MaxQueued: 8, Retention: 2})
	defer s.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		snap, err := s.Submit(fmt.Sprintf("r%d", i), 0, func(ctx context.Context, report Report) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	list := s.List()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(list), list)
	}
	for _, id := range ids[:3] {
		if _, ok := s.Get(id); ok {
			t.Fatalf("evicted job %s still retrievable", id)
		}
	}
	for _, id := range ids[3:] {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("recent job %s evicted", id)
		}
	}

	// An active job is never evicted, no matter how many terminals pass.
	release := make(chan struct{})
	active, err := s.Submit("active", 0, func(ctx context.Context, report Report) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, active.ID, StatusRunning)
	// Saturating terminals can't evict it while it runs... but they queue
	// behind it on the single runner, so finish the active job first and
	// check it was retained throughout its run.
	if _, ok := s.Get(active.ID); !ok {
		t.Fatal("running job evicted")
	}
	close(release)
	if _, err := s.Wait(context.Background(), active.ID); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitCancelGet hammers every store method from many
// goroutines; run under -race this is the memory-safety check.
func TestConcurrentSubmitCancelGet(t *testing.T) {
	s := NewStore(Options{MaxRunning: 4, MaxQueued: 64, Retention: 8})
	defer s.Close()

	const submitters = 8
	const perSubmitter = 20
	var wg sync.WaitGroup
	idCh := make(chan string, submitters*perSubmitter)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				snap, err := s.Submit(fmt.Sprintf("g%d-%d", g, i), 2, func(ctx context.Context, report Report) (any, error) {
					report(0, g, nil)
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(time.Duration(i%3) * time.Millisecond):
					}
					report(1, i, nil)
					return "ok", nil
				})
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				idCh <- snap.ID
			}
		}(g)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				case id := <-idCh:
					if g%2 == 0 {
						s.Cancel(id)
						s.Cancel(id) // duplicate cancel under contention
					}
					s.Get(id)
					s.List()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Every retained job eventually terminates.
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		for _, snap := range s.List() {
			if !snap.Status.Terminal() {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if n := len(s.List()); n > 8+4+64 {
		t.Fatalf("retained %d jobs", n)
	}
}

// TestCloseRejectsAndCancels checks Close cancels active work and later
// submits fail with ErrClosed.
func TestCloseRejectsAndCancels(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1, MaxQueued: 4})
	started := make(chan struct{})
	running, err := s.Submit("running", 0, func(ctx context.Context, report Report) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit("queued", 0, func(ctx context.Context, report Report) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, id := range []string{running.ID, queued.ID} {
		snap, ok := s.Get(id)
		if !ok || snap.Status != StatusCancelled {
			t.Fatalf("after close, job %s: %v %+v", id, ok, snap)
		}
	}
	if _, err := s.Submit("late", 0, func(ctx context.Context, report Report) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	s := NewStore(Options{})
	defer s.Close()
	started := make(chan struct{})
	snap, err := s.Submit("stuck", 0, func(ctx context.Context, report Report) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Wait(ctx, snap.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait err = %v", err)
	}
	if _, err := s.Wait(context.Background(), "job-000000"); err == nil ||
		!strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("wait on unknown job: %v", err)
	}
	s.Cancel(snap.ID)
}

// gate blocks one runner until released, so tests control exactly when
// the scheduler makes its next dispatch decision.
func gate() (Fn, func()) {
	ch := make(chan struct{})
	var once sync.Once
	fn := func(ctx context.Context, report Report) (any, error) {
		select {
		case <-ch:
		case <-ctx.Done():
		}
		return nil, nil
	}
	return fn, func() { once.Do(func() { close(ch) }) }
}

// recordingStore submits jobs that append their label to a shared log,
// so dispatch order is observable.
func recordingStore(t *testing.T, opts Options) (*Store, *[]string, *sync.Mutex) {
	t.Helper()
	s := NewStore(opts)
	t.Cleanup(s.Close)
	var mu sync.Mutex
	log := []string{}
	return s, &log, &mu
}

func runOrderJob(log *[]string, mu *sync.Mutex, label string) Fn {
	return func(ctx context.Context, report Report) (any, error) {
		mu.Lock()
		*log = append(*log, label)
		mu.Unlock()
		return nil, nil
	}
}

// TestFIFOOrder is the headline guarantee: jobs queued behind a busy
// runner dispatch in submission order, and the queued count is exact.
func TestFIFOOrder(t *testing.T) { checkFIFOOrder(t, false) }

// TestFIFOOrderAcrossReplay: replays (Submission.Replay, as WAL replay
// submits them at boot in ascending-ID order) queue exactly like fresh
// submissions, so a restart cannot reorder accepted work.
func TestFIFOOrderAcrossReplay(t *testing.T) { checkFIFOOrder(t, true) }

func checkFIFOOrder(t *testing.T, replay bool) {
	t.Helper()
	s, log, mu := recordingStore(t, Options{MaxRunning: 1, MaxQueued: 16})
	// Occupy the single runner so everything below queues.
	blocker, release := gate()
	bsnap, err := s.Submit("blocker", 0, blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, bsnap.ID, StatusRunning)
	want := []string{"j1", "j2", "j3", "j4"}
	var jobIDs []string
	for _, label := range want {
		snap, err := s.SubmitJob(Submission{Label: label, Total: 1, Fn: runOrderJob(log, mu, label), Replay: replay})
		if err != nil {
			t.Fatal(err)
		}
		jobIDs = append(jobIDs, snap.ID)
	}
	if st := s.Stats(); st.Queued != len(want) || st.Running != 1 {
		t.Fatalf("replay=%v stats %+v", replay, st)
	}
	release()
	for _, id := range jobIDs {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := fmt.Sprint(*log)
	mu.Unlock()
	if got != fmt.Sprint(want) {
		t.Fatalf("replay=%v dispatch order %v, want %v", replay, got, want)
	}
}

// TestAwaitVersionCursor: Await returns immediately for a stale cursor,
// blocks until news for a fresh one, and returns immediately on
// terminal jobs regardless of cursor.
func TestAwaitVersionCursor(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1})
	defer s.Close()
	step := make(chan struct{})
	snap, err := s.Submit("steps", 2, func(ctx context.Context, report Report) (any, error) {
		<-step
		report(0, "a", nil)
		<-step
		report(1, "b", nil)
		return "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 {
		t.Fatalf("initial version %d, want 1", snap.Version)
	}

	// Stale cursor 0: immediate (version is already 1).
	got, err := s.Await(context.Background(), snap.ID, 0)
	if err != nil || got.Version < 1 {
		t.Fatalf("await stale: %v %v", got.Version, err)
	}

	// Await the first progress report concurrently with producing it.
	type res struct {
		snap Snapshot
		err  error
	}
	ch := make(chan res, 1)
	cur := got.Version
	go func() {
		s2, err := s.Await(context.Background(), snap.ID, cur)
		ch <- res{s2, err}
	}()
	step <- struct{}{} // first item completes
	r := <-ch
	if r.err != nil || r.snap.Version <= cur {
		t.Fatalf("await news: %+v", r)
	}
	step <- struct{}{} // job finishes
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil || !final.Done() {
		t.Fatalf("final: %+v %v", final, err)
	}
	// Terminal job: even a cursor at (or past) the final version returns
	// immediately instead of hanging.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.Await(context.Background(), snap.ID, final.Version+100); err != nil {
			t.Errorf("await terminal: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Await hung on a terminal job")
	}

	// Unknown IDs are ErrUnknownJob; an expired context surfaces as its
	// error.
	if _, err := s.Await(context.Background(), "job-999999", 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	running, _ := s.Submit("idle", 0, func(ctx context.Context, report Report) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	snap2, _ := s.Get(running.ID)
	if _, err := s.Await(ctx, running.ID, snap2.Version+10); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled await: %v", err)
	}
}

// TestListPage covers the pagination and filter contract: cursors are
// numeric on the monotonic ID, filters compose with limits, and a
// cursor naming an evicted job still resumes correctly.
func TestListPage(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1, MaxQueued: 64, Retention: 64})
	defer s.Close()
	for i := 0; i < 5; i++ {
		snap, err := s.Submit(fmt.Sprintf("j%d", i), 0, func(ctx context.Context, report Report) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	page, next := s.ListPage(ListQuery{Limit: 2})
	if len(page) != 2 || page[0].ID != "job-000001" || next != "job-000002" {
		t.Fatalf("page1 %v next %q", ids(page), next)
	}
	page, next = s.ListPage(ListQuery{Limit: 2, After: next})
	if len(page) != 2 || page[0].ID != "job-000003" || next != "job-000004" {
		t.Fatalf("page2 %v next %q", ids(page), next)
	}
	page, next = s.ListPage(ListQuery{Limit: 2, After: next})
	if len(page) != 1 || page[0].ID != "job-000005" || next != "" {
		t.Fatalf("page3 %v next %q", ids(page), next)
	}
	// A cursor for an ID that no longer exists (evicted) still works:
	// strictly-greater comparison, not position lookup.
	page, _ = s.ListPage(ListQuery{After: "job-000002"})
	if len(page) != 3 || page[0].ID != "job-000003" {
		t.Fatalf("gap cursor %v", ids(page))
	}
	// Status filter: everything finished, so queued yields nothing.
	if page, _ = s.ListPage(ListQuery{Status: StatusQueued}); len(page) != 0 {
		t.Fatalf("queued filter %v", ids(page))
	}
	if page, _ = s.ListPage(ListQuery{Status: StatusSucceeded, Limit: 3}); len(page) != 3 {
		t.Fatalf("succeeded filter %v", ids(page))
	}
}

// TestListPageOrdersById: after a restart the store's insertion order
// can disagree with ID order (restored terminal snapshots first, then
// replayed lower-ID jobs). Pagination must walk by ID or the exclusive
// cursor would skip the out-of-place jobs on every later page.
func TestListPageOrdersByID(t *testing.T) {
	s := NewStore(Options{MaxRunning: 1})
	defer s.Close()
	if err := s.Restore(Snapshot{ID: "job-000009", Status: StatusSucceeded, Version: 3}); err != nil {
		t.Fatal(err)
	}
	blocker, release := gate()
	defer release()
	if _, err := s.SubmitJob(Submission{ID: "job-000007", Label: "replayed", Fn: blocker, Replay: true}); err != nil {
		t.Fatal(err)
	}
	page, next := s.ListPage(ListQuery{Limit: 1})
	if len(page) != 1 || page[0].ID != "job-000007" || next != "job-000007" {
		t.Fatalf("page1 %v next %q, want job-000007 first", ids(page), next)
	}
	page, next = s.ListPage(ListQuery{Limit: 1, After: next})
	if len(page) != 1 || page[0].ID != "job-000009" || next != "" {
		t.Fatalf("page2 %v next %q: cursor skipped the restored job", ids(page), next)
	}
}

func ids(snaps []Snapshot) []string {
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = s.ID
	}
	return out
}
