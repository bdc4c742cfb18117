// Package jobs is the async half of the batch-evaluation service: an
// in-memory store of long-running jobs with bounded concurrency, a
// bounded FIFO pending queue (the service's backpressure valve),
// per-item progress, cancellation, and bounded retention of finished
// jobs.
//
// The store is deliberately ignorant of what a job computes: a job is a
// function of a context plus a progress reporter. The serving layer wraps
// grid sweeps into jobs; tests wrap stubs. Cancellation flows through the
// job's context, which the serving layer plumbs down into the per-layer
// mapping search, so cancelling a job stops in-flight work rather than
// merely hiding its result.
//
// The store itself stays in-memory, but it exposes the seams durability
// needs: Options.OnTerminal streams terminal snapshots to a persistence
// layer, Restore re-inserts persisted terminal jobs under their original
// IDs after a restart, and SubmitJob with Submission.Replay replays
// write-ahead-logged jobs that never finished (see internal/persist and
// the serving layer).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

// Lifecycle: Queued -> Running -> one of the terminal states. Cancelling
// a queued job skips Running.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusSucceeded, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// Report records one completed work item: its index in the job's work
// list, a JSON-ready partial result, and the item's error (nil on
// success). Safe for concurrent use from many workers.
type Report func(index int, partial any, err error)

// Fn is a job body. It must honor ctx — a cancelled job's fn is expected
// to return promptly with ctx.Err() — and may call report after each
// completed item. Its return value becomes the job's final result.
type Fn func(ctx context.Context, report Report) (any, error)

// Options bounds the store. The zero value is usable.
type Options struct {
	// MaxRunning bounds concurrently running jobs (default 1: one job at
	// a time owns the evaluation worker pool).
	MaxRunning int
	// MaxQueued bounds the pending queue; Submit returns ErrQueueFull
	// beyond it (default 8).
	MaxQueued int
	// Retention bounds retained terminal jobs; the oldest finished jobs
	// are evicted beyond it (default 64). Queued and running jobs are
	// never evicted.
	Retention int
	// RetryAfter is the backoff hint paired with ErrQueueFull
	// (default 1s).
	RetryAfter time.Duration
	// OnTerminal, when set, is invoked outside the store mutex each time
	// a job reaches a terminal state. shutdown is true when the
	// transition was forced by Close: the persistence layer uses the
	// distinction to keep (rather than retire) the write-ahead records of
	// jobs interrupted by a shutdown, so they replay on the next boot.
	OnTerminal func(snap Snapshot, shutdown bool)
	// OnEvicted, when set, is invoked outside the store mutex with the ID
	// of each terminal job dropped by the retention bound. The
	// persistence layer deletes the job's on-disk snapshot here, so the
	// disk tier is bounded by the same retention as the memory tier.
	OnEvicted func(id string)
	// ObserveDispatch, when set, is invoked outside the store mutex each
	// time a queued job is dispatched to a runner, with how long it waited
	// in the queue. The serving layer feeds its queue-wait latency
	// histogram from this hook.
	ObserveDispatch func(wait time.Duration)
}

func (o Options) maxRunning() int {
	if o.MaxRunning > 0 {
		return o.MaxRunning
	}
	return 1
}

func (o Options) maxQueued() int {
	if o.MaxQueued > 0 {
		return o.MaxQueued
	}
	return 8
}

func (o Options) retention() int {
	if o.Retention > 0 {
		return o.Retention
	}
	return 64
}

func (o Options) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return time.Second
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity — the caller should retry after Store.RetryAfter.
var ErrQueueFull = errors.New("jobs: pending queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: store closed")

// ErrUnknownJob is returned by Wait and Await for IDs the store has
// never seen (or has already evicted).
var ErrUnknownJob = errors.New("jobs: unknown job")

// Snapshot is a point-in-time copy of one job, JSON-ready for the HTTP
// API.
type Snapshot struct {
	ID     string `json:"id"`
	Label  string `json:"label,omitempty"`
	Status Status `json:"status"`
	// Version counts the job's observable mutations (enqueue, start, each
	// completed item, terminal transition). It is the cursor for Await and
	// the HTTP layer's SSE/long-poll progress endpoints: a snapshot with a
	// higher version than the one a client holds carries news. Versions
	// are per-process — they restart from the snapshot's persisted value
	// after a reboot — and only ever grow while the process lives.
	Version int64 `json:"version"`

	// Completed counts reported items; Total is the work-list size.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// FirstError is the first per-item failure (items after it keep
	// running; a sweep reports per-request errors without poisoning the
	// batch).
	FirstError string `json:"first_error,omitempty"`

	// Results holds per-item partial results in work-list order, nil
	// until the item completes. Populated while the job runs; omitted
	// from List summaries.
	Results []any `json:"results,omitempty"`
	// Result is the job body's return value, set on success; omitted
	// from List summaries.
	Result any `json:"result,omitempty"`
	// Error is the job body's terminal error, set on failure.
	Error string `json:"error,omitempty"`

	CreatedAt  time.Time `json:"created_at"`
	ElapsedSec float64   `json:"elapsed_sec"`
}

// Done reports whether the snapshot is in a terminal state.
func (s Snapshot) Done() bool { return s.Status.Terminal() }

// job is the store's mutable record. All fields below the fn line are
// guarded by the store mutex.
type job struct {
	id    string
	label string
	total int
	fn    Fn

	status    Status
	completed int
	firstErr  string
	partials  []any
	result    any
	err       string
	// version counts observable mutations; changed is closed and replaced
	// on every bump, so any number of watchers (SSE streams, long-polls)
	// can wait for "something newer than version N" without per-watcher
	// queues.
	version int64
	changed chan struct{}

	cancel          context.CancelFunc // non-nil only while running
	cancelRequested bool
	// userCancelled distinguishes an explicit Cancel from a Close-driven
	// one: a deliberately cancelled job must never be classified as
	// shutdown-interrupted (the persistence layer would keep its WAL and
	// resurrect it on the next boot).
	userCancelled bool
	// created is when the job entered the pending queue — also the
	// queue-wait clock ObserveDispatch reads.
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{} // closed on terminal transition
}

// Store owns the jobs, their queue, and the runner goroutines. All
// methods are safe for concurrent use.
type Store struct {
	opts Options

	mu    sync.Mutex
	cond  *sync.Cond // wakes runners when pending grows or the store closes
	seq   int
	jobs  map[string]*job
	order []*job // insertion order: List and retention eviction
	// pending is the FIFO queue runners pop from the front;
	// cancellation removes in place.
	pending []*job
	started bool
	closed  bool

	wg sync.WaitGroup
	// notifyWG tracks OnTerminal/OnEvicted notifications issued from
	// caller goroutines (Cancel, Restore) rather than runners. Close
	// waits for it so a cancel racing shutdown still gets its records to
	// the persistence layer before the stores are torn down. Additions
	// happen under mu strictly before Close's wait, so the pairing is
	// race-free.
	notifyWG sync.WaitGroup
}

// NewStore returns a store. Its opts.maxRunning runner goroutines start
// lazily on the first Submit, so servers that never use async jobs (the
// experiment runner's package-level sweeper, say) cost nothing.
func NewStore(opts Options) *Store {
	s := &Store{
		opts: opts,
		jobs: make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// startLocked launches the runner goroutines once.
func (s *Store) startLocked() {
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.opts.maxRunning(); i++ {
		s.wg.Add(1)
		go s.runner()
	}
}

// runner drains the pending queue, oldest first, until the store
// closes (Close empties the queue, so an empty queue after wake-up means
// shutdown).
func (s *Store) runner() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending[0] = nil // don't pin the job from the backing array
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.run(j)
		s.mu.Lock()
	}
}

// RetryAfter is the backoff hint to pair with ErrQueueFull (the HTTP
// layer turns it into a Retry-After header).
func (s *Store) RetryAfter() time.Duration { return s.opts.retryAfter() }

// Stats counts jobs by lifecycle stage.
type Stats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Finished int `json:"finished"`
}

// Stats snapshots the store's occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	for _, j := range s.order {
		switch {
		case j.status == StatusQueued:
			st.Queued++
		case j.status == StatusRunning:
			st.Running++
		default:
			st.Finished++
		}
	}
	return st
}

// Submission describes one job for SubmitJob. ID "" allocates the next
// store ID.
type Submission struct {
	ID    string
	Label string
	Total int
	Fn    Fn
	// Replay bypasses the pending-queue bound: the job was admitted
	// before a restart (it has a WAL) and bouncing it now would break the
	// accepted-job contract.
	Replay bool
}

// SubmitJob appends one job to the FIFO queue and returns its initial
// snapshot. It fails fast with ErrQueueFull when the pending queue is
// at capacity — the backpressure contract — and never blocks on a
// saturated pool. Cancelling a queued job frees its slot immediately.
func (s *Store) SubmitJob(sub Submission) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, ErrClosed
	}
	if sub.ID == "" {
		s.seq++
		sub.ID = fmt.Sprintf("job-%06d", s.seq)
	}
	return s.submitLocked(sub)
}

// Submit enqueues a job with a work list of total items (see SubmitJob
// for the backpressure contract).
func (s *Store) Submit(label string, total int, fn Fn) (Snapshot, error) {
	return s.SubmitJob(Submission{Label: label, Total: total, Fn: fn})
}

// ReserveID allocates the next job ID without creating a job, so a
// caller can write the job's write-ahead record to durable storage
// BEFORE SubmitJob makes the job runnable — otherwise a job that
// finishes instantly could have its terminal records persisted ahead of
// its WAL, leaving a stale WAL that replays finished work after a
// restart. A reserved ID that is never submitted is simply skipped.
func (s *Store) ReserveID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return fmt.Sprintf("job-%06d", s.seq)
}

// submitLocked creates and enqueues one queued job. Fresh submissions
// honor the pending-queue cap; replays bypass it.
func (s *Store) submitLocked(sub Submission) (Snapshot, error) {
	if sub.Fn == nil {
		return Snapshot{}, errors.New("jobs: nil job body")
	}
	if sub.ID == "" {
		return Snapshot{}, errors.New("jobs: empty job ID")
	}
	if _, ok := s.jobs[sub.ID]; ok {
		return Snapshot{}, fmt.Errorf("jobs: job %q already exists", sub.ID)
	}
	if !sub.Replay && len(s.pending) >= s.opts.maxQueued() {
		return Snapshot{}, ErrQueueFull
	}
	total := sub.Total
	if total < 0 {
		total = 0
	}
	s.startLocked()
	if n := idSeq(sub.ID); n > s.seq {
		s.seq = n
	}
	j := &job{
		id:       sub.ID,
		label:    sub.Label,
		total:    total,
		fn:       sub.Fn,
		status:   StatusQueued,
		partials: make([]any, total),
		version:  1,
		changed:  make(chan struct{}),
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	s.pending = append(s.pending, j)
	s.cond.Signal()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return j.snapshotLocked(), nil
}

// bumpLocked advances the job's version and wakes every watcher parked
// on the previous version.
func (s *Store) bumpLocked(j *job) {
	j.version++
	close(j.changed)
	j.changed = make(chan struct{})
}

// idSeq parses the numeric suffix of a store-issued job ID
// ("job-000042" -> 42), returning 0 for foreign formats.
func idSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// Restore inserts a terminal job recovered from persistent storage: it
// answers Get/List/Wait under its original ID but never runs. The ID
// counter advances past restored IDs so new submissions cannot collide.
// Restoring an ID that already exists is a silent no-op (first wins);
// restoring a non-terminal snapshot is an error — interrupted jobs are
// replayed via SubmitJob with Replay set, not resurrected mid-state.
func (s *Store) Restore(snap Snapshot) error {
	if !snap.Status.Terminal() {
		return fmt.Errorf("jobs: cannot restore %q in non-terminal state %q", snap.ID, snap.Status)
	}
	if snap.ID == "" {
		return errors.New("jobs: cannot restore a job without an ID")
	}
	// Clamp fields a decoder cannot vouch for: the snapshot may come from
	// external storage, and a hostile Total must not panic make below.
	if snap.Total < 0 {
		snap.Total = 0
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if _, ok := s.jobs[snap.ID]; ok {
		s.mu.Unlock()
		return nil
	}
	if n := idSeq(snap.ID); n > s.seq {
		s.seq = n
	}
	j := &job{
		id:        snap.ID,
		label:     snap.Label,
		total:     snap.Total,
		status:    snap.Status,
		completed: snap.Completed,
		firstErr:  snap.FirstError,
		result:    snap.Result,
		err:       snap.Error,
		version:   snap.Version,
		changed:   make(chan struct{}),
		created:   snap.CreatedAt,
		done:      make(chan struct{}),
	}
	if j.version < 1 {
		j.version = 1
	}
	// Rebuild the timing so ElapsedSec survives the round trip.
	j.started = snap.CreatedAt
	j.finished = snap.CreatedAt.Add(time.Duration(snap.ElapsedSec * float64(time.Second)))
	j.partials = make([]any, snap.Total)
	for i := 0; i < len(snap.Results) && i < snap.Total; i++ {
		j.partials[i] = snap.Results[i]
	}
	close(j.done)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	evicted := s.applyRetentionLocked()
	s.notifyWG.Add(1) // under mu: ordered before Close's wait
	s.mu.Unlock()
	s.notifyEvicted(evicted)
	s.notifyWG.Done()
	return nil
}

// run executes one dequeued job to a terminal state.
func (s *Store) run(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s.mu.Lock()
	if j.status != StatusQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	wait := j.started.Sub(j.created)
	s.bumpLocked(j)
	s.mu.Unlock()
	if s.opts.ObserveDispatch != nil {
		s.opts.ObserveDispatch(wait)
	}

	report := func(i int, partial any, err error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if i >= 0 && i < len(j.partials) {
			j.partials[i] = partial
		}
		j.completed++
		if err != nil && j.firstErr == "" {
			j.firstErr = err.Error()
		}
		s.bumpLocked(j)
	}
	result, err := j.fn(ctx, report)

	s.mu.Lock()
	j.cancel = nil
	switch {
	case j.cancelRequested:
		j.status = StatusCancelled
		if err != nil && !errors.Is(err, context.Canceled) {
			j.err = err.Error()
		}
	case err != nil:
		j.status = StatusFailed
		j.err = err.Error()
	default:
		j.status = StatusSucceeded
		j.result = result
	}
	evicted := s.finishLocked(j)
	// "Shutdown-interrupted" means Close forced the transition AND the
	// user never asked for it: an explicitly cancelled job stays
	// cancelled on disk instead of replaying next boot.
	snap, shutdown := j.snapshotLocked(), s.closed && !j.userCancelled
	s.mu.Unlock()
	s.notifyTerminal(snap, shutdown)
	s.notifyEvicted(evicted)
}

// notifyTerminal invokes the OnTerminal hook (never under the mutex).
func (s *Store) notifyTerminal(snap Snapshot, shutdown bool) {
	if s.opts.OnTerminal != nil {
		s.opts.OnTerminal(snap, shutdown)
	}
}

// finishLocked stamps a terminal job, wakes waiters, and applies the
// retention bound, returning the evicted job IDs for the caller to
// report through OnEvicted once outside the mutex.
func (s *Store) finishLocked(j *job) []string {
	j.fn = nil // the body never runs again; don't pin its captures
	j.finished = time.Now()
	s.bumpLocked(j)
	close(j.done)
	return s.applyRetentionLocked()
}

// applyRetentionLocked evicts the oldest terminal jobs beyond the
// retention bound, returning their IDs. Queued and running jobs are
// never evicted.
func (s *Store) applyRetentionLocked() []string {
	terminal := 0
	for _, o := range s.order {
		if o.status.Terminal() {
			terminal++
		}
	}
	var evicted []string
	for i := 0; i < len(s.order) && terminal > s.opts.retention(); {
		if !s.order[i].status.Terminal() {
			i++
			continue
		}
		evicted = append(evicted, s.order[i].id)
		delete(s.jobs, s.order[i].id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		terminal--
	}
	return evicted
}

// notifyEvicted invokes the OnEvicted hook (never under the mutex).
func (s *Store) notifyEvicted(ids []string) {
	if s.opts.OnEvicted != nil {
		for _, id := range ids {
			s.opts.OnEvicted(id)
		}
	}
}

// Get returns a snapshot of one job.
func (s *Store) Get(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshotLocked(), true
}

// List snapshots every retained job in submission order. Listings are
// summaries — per-item Results and the final Result are omitted (a
// retention's worth of grid-sized payloads would dwarf the listing and
// stall the progress path, which shares the store mutex); fetch one job
// with Get for the full payload.
func (s *Store) List() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.summaryLocked())
	}
	return out
}

// ListQuery filters and pages a listing. The zero value lists everything.
type ListQuery struct {
	// Status keeps only jobs in that lifecycle state ("" = all).
	Status Status
	// Limit caps the page size (<= 0 = unlimited).
	Limit int
	// After is an exclusive cursor: only jobs whose ID's monotonic
	// sequence number exceeds After's are returned. Cursors survive
	// eviction — the comparison is numeric, not positional — so a page
	// boundary job evicted between requests does not skip or repeat
	// survivors.
	After string
}

// ListPage is List under a query: summaries in ascending-ID order, plus
// a cursor for the next page ("" when this page exhausts the matches).
// Pages iterate by ID, not by insertion position: a restart inserts
// replayed (still-running) jobs after restored (finished) ones, so
// insertion order can disagree with ID order — and an exclusive numeric
// cursor over a misordered walk would skip the out-of-place jobs on
// every subsequent page.
func (s *Store) ListPage(q ListQuery) (page []Snapshot, next string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byID := make([]*job, len(s.order))
	copy(byID, s.order)
	sort.SliceStable(byID, func(i, j int) bool { return idSeq(byID[i].id) < idSeq(byID[j].id) })
	afterSeq := -1
	if q.After != "" {
		afterSeq = idSeq(q.After)
	}
	for _, j := range byID {
		if afterSeq >= 0 && idSeq(j.id) <= afterSeq {
			continue
		}
		if q.Status != "" && j.status != q.Status {
			continue
		}
		if q.Limit > 0 && len(page) == q.Limit {
			return page, page[len(page)-1].ID
		}
		page = append(page, j.summaryLocked())
	}
	return page, ""
}

// Cancel requests cancellation of one job and returns its snapshot. A
// queued job transitions straight to cancelled; a running job has its
// context cancelled and reaches the cancelled state when its body
// returns; a terminal job is untouched. Cancel is idempotent — repeated
// calls are no-ops — and only reports false for unknown IDs.
func (s *Store) Cancel(id string) (Snapshot, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Snapshot{}, false
	}
	finished := false
	var evicted []string
	switch j.status {
	case StatusQueued:
		j.cancelRequested = true
		j.userCancelled = true
		j.status = StatusCancelled
		s.dropPendingLocked(j)
		evicted = s.finishLocked(j)
		finished = true
	case StatusRunning:
		j.userCancelled = true
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
	}
	if finished {
		s.notifyWG.Add(1) // under mu: ordered before Close's wait
	}
	snap := j.snapshotLocked()
	s.mu.Unlock()
	if finished {
		s.notifyTerminal(snap, false)
		s.notifyEvicted(evicted)
		s.notifyWG.Done()
	}
	return snap, true
}

// dropPendingLocked removes a job from the pending queue so its slot is
// reusable the moment it is cancelled, not when a runner would have
// reached it. The job may already be off the queue (a runner popped it
// but has not yet marked it running); that is fine — the runner skips
// non-queued jobs.
func (s *Store) dropPendingLocked(j *job) {
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// returning the final snapshot.
func (s *Store) Wait(ctx context.Context, id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.snapshotLocked(), nil
}

// Await blocks until the job's version exceeds afterVersion — some
// observable mutation the caller has not seen yet — and returns the
// fresh snapshot. A terminal job returns immediately regardless of the
// cursor (no further mutations are coming, and blocking forever on a
// finished job would hang resumed watchers). This is the seam the HTTP
// layer's SSE stream and long-poll are built on: hold a snapshot, await
// its version, emit, repeat.
func (s *Store) Await(ctx context.Context, id string, afterVersion int64) (Snapshot, error) {
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return Snapshot{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
		}
		if j.version > afterVersion || j.status.Terminal() {
			snap := j.snapshotLocked()
			s.mu.Unlock()
			return snap, nil
		}
		ch := j.changed
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return Snapshot{}, ctx.Err()
		}
	}
}

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the runners to drain.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.notifyWG.Wait()
		return
	}
	s.closed = true
	var cancelled []Snapshot
	var evicted []string
	// Iterate a copy: finishLocked's retention pass splices s.order.
	order := append([]*job(nil), s.order...)
	for _, j := range order {
		switch j.status {
		case StatusQueued:
			j.cancelRequested = true
			j.status = StatusCancelled
			s.dropPendingLocked(j)
			evicted = append(evicted, s.finishLocked(j)...)
			cancelled = append(cancelled, j.snapshotLocked())
		case StatusRunning:
			if !j.cancelRequested {
				j.cancelRequested = true
				j.cancel()
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, snap := range cancelled {
		s.notifyTerminal(snap, true)
	}
	s.notifyEvicted(evicted)
	s.wg.Wait()
	// Cancels/Restores that turned a job terminal before we took the lock
	// may still be delivering their notifications on caller goroutines;
	// their records must reach the persistence layer before it shuts.
	s.notifyWG.Wait()
}

// summaryLocked copies the job's scalar fields under the store mutex —
// everything but the payloads.
func (j *job) summaryLocked() Snapshot {
	snap := Snapshot{
		ID:         j.id,
		Label:      j.label,
		Status:     j.status,
		Version:    j.version,
		Completed:  j.completed,
		Total:      j.total,
		FirstError: j.firstErr,
		Error:      j.err,
		CreatedAt:  j.created,
	}
	switch {
	case j.status.Terminal() && !j.started.IsZero():
		snap.ElapsedSec = j.finished.Sub(j.started).Seconds()
	case j.status == StatusRunning:
		snap.ElapsedSec = time.Since(j.started).Seconds()
	}
	return snap
}

// snapshotLocked is summaryLocked plus the payloads. The partial slice
// is copied so readers never alias the live buffer; the values themselves
// are immutable once reported.
func (j *job) snapshotLocked() Snapshot {
	snap := j.summaryLocked()
	snap.Result = j.result
	if j.completed > 0 {
		snap.Results = append([]any(nil), j.partials...)
	}
	return snap
}
