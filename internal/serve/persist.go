package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/serve/api"
	"repro/internal/serve/jobs"
)

// Durable warm starts: this file wires the on-disk store (package
// persist) into the serving layer. Cache fills stream to disk through a
// write-behind queue (the hot path never blocks on disk), boot scans the
// cache dir in bounded parallel and admits entries through the normal
// eviction policy, and the job store snapshots terminal jobs and
// write-ahead-logs queued ones so a restarted instance answers
// /v1/jobs/{id} for prior work and resumes interrupted sweeps.

// Cache keys are "<kind>|<content fingerprint>"; the persisted record key
// is the cache key itself, so a loaded record maps straight back to its
// slot after fingerprint verification.
func engineKey(archFP string) string           { return "eng|" + archFP }
func contextKey(archFP, layerFP string) string { return "ctx|" + archFP + "|" + layerFP }

// isFingerprint reports whether s is a fingerprint as ArchFingerprint
// and LayerFingerprint write them: a SHA-256 in lowercase hex.
func isFingerprint(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for _, c := range []byte(s) {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// Job record keys distinguish terminal snapshots from write-ahead entries.
func jobSnapKey(id string) string { return "job|" + id }
func jobWALKey(id string) string  { return "wal|" + id }

// jobWAL is the write-ahead record of an accepted sweep job: everything
// needed to re-run it after a restart. Records written by older versions
// may carry fields this one no longer has; decoding ignores them. Only
// JSON-expressible requests are replayable — the HTTP path always is,
// but programmatic requests carrying prebuilt *Arch/*Net values cannot
// be serialized, so such jobs are not write-ahead-logged at all
// (walExpressible); their terminal snapshots still persist.
type jobWAL struct {
	ID         string    `json:"id"`
	Requests   []Request `json:"requests"`
	Workers    int       `json:"workers,omitempty"`
	TimeoutSec float64   `json:"timeout_sec,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
}

// Checkpoint record keys: "ckpt|<job id>|<zero-padded item index>". The
// padding keeps keys filename-safe and fixed-width; the index is also
// inside the payload (EncodeCheckpointRecord), which is what replay
// trusts — the key exists for the store's one-file-per-key dedup.
func ckptKey(id string, idx int) string { return fmt.Sprintf("ckpt|%s|%06d", id, idx) }

// WarmStats summarizes one boot's warm-start scan (the wire type
// api.WarmStats).
type WarmStats = api.WarmStats

// PersistStats is the /healthz "persist" section (the wire type
// api.PersistStats).
type PersistStats = api.PersistStats

// persistState carries the server's optional durable stores. Both fields
// are nil when the corresponding directory is not configured.
type persistState struct {
	cache *persist.Store
	jobs  *persist.Store
	warm  WarmStats
	err   string
}

// PersistStats snapshots the persistence layer (zero-valued with
// persistence disabled).
func (s *Server) PersistStats() PersistStats {
	ps := PersistStats{Warm: s.persist.warm, Error: s.persist.err}
	if s.persist.cache != nil {
		ps.Enabled = true
		ps.Cache = s.persist.cache.Stats()
	}
	if s.persist.jobs != nil {
		ps.Enabled = true
		ps.Jobs = s.persist.jobs.Stats()
	}
	return ps
}

// PersistError reports a store that failed to open, for callers (the CLI)
// that prefer failing fast over running without requested durability.
func (s *Server) PersistError() error {
	if s.persist.err != "" {
		return fmt.Errorf("serve: %s", s.persist.err)
	}
	return nil
}

// openPersist opens the configured stores, recording failures instead of
// propagating them (a server with a broken disk still serves). The two
// stores must not share a directory: each boot scan deletes records of
// kinds it does not own, so a shared dir would silently destroy the
// other store's files.
func (s *Server) openPersist(cacheDir, jobsDir string) {
	if cacheDir != "" && jobsDir != "" && filepath.Clean(cacheDir) == filepath.Clean(jobsDir) {
		s.persist.err = fmt.Sprintf("cache dir and jobs dir must differ (both %q)", cacheDir)
		return
	}
	open := func(dir string) *persist.Store {
		if dir == "" {
			return nil
		}
		st, err := persist.Open(dir)
		if err != nil {
			s.persist.err = err.Error()
			return nil
		}
		return st
	}
	s.persist.cache = open(cacheDir)
	s.persist.jobs = open(jobsDir)
}

// cacheFillHook returns the cache's onFill callback: encode (on the
// writer goroutine) and enqueue each compiled engine/context, tagged with
// its compile cost so a future warm start admits the costliest last.
func (s *Server) cacheFillHook() func(key string, val any, costSec float64) {
	store := s.persist.cache
	return func(key string, val any, costSec float64) {
		switch v := val.(type) {
		case *core.Engine:
			store.Put(persist.KindEngine, key, costSec, func() ([]byte, error) { return persist.EncodeEngine(v) })
		case *core.LayerContext:
			store.Put(persist.KindLayerContextCol, key, costSec, func() ([]byte, error) { return persist.EncodeLayerContextColumnar(v) })
		}
	}
}

// warmStartCache scans the cache dir with bounded parallelism, decoding
// each layer-context record and verifying its content fingerprint on the
// scan's workers, and admits survivors through the normal eviction
// policy (capacity still holds). An engine record is admitted by its key
// alone: the first request that hits it builds the engine from the
// request's architecture (restoredEngine), whose fingerprint the key is,
// so the record's payload — the architecture as JSON, which older
// servers decode — is never decoded. Mismatches and decode failures are
// deleted by the scan. Admission runs in ascending persisted-cost order
// (ScanOrdered), each record the most recently used when admitted: when
// the cache budget cannot hold every record on disk, the least recently
// used are evicted, so the compiles that were most expensive to produce
// stay warm and the cheap ones are the ones evicted (their files stay).
func (s *Server) warmStartCache() {
	store := s.persist.cache
	if store == nil {
		return
	}
	stats, err := store.ScanOrdered(runtime.NumCPU(), func(rec persist.Record) (any, error) {
		switch rec.Kind {
		case persist.KindEngine:
			// Only an engine lookup, by an architecture that fingerprints
			// to the key, may hit the entry.
			if fp, ok := strings.CutPrefix(rec.Key, engineKey("")); !ok || !isFingerprint(fp) {
				return nil, fmt.Errorf("serve: engine record under key %q", rec.Key)
			}
			return new(restoredEngine), nil
		case persist.KindLayerContextCol:
			lctx, err := persist.DecodeLayerContextColumnar(rec.Payload)
			if err != nil {
				return nil, err
			}
			// Re-fingerprint: a record whose decoded content no longer
			// hashes to its key (schema drift, hand-edited file) must not
			// be served under that key.
			parts := strings.Split(rec.Key, "|")
			if len(parts) != 3 || contextKey(parts[1], LayerFingerprint(lctx.Layer)) != rec.Key {
				return nil, fmt.Errorf("serve: context record key mismatch")
			}
			return lctx, nil
		default:
			// Includes the retired JSON context kind: the scan counts the
			// record as skipped and deletes it.
			return nil, fmt.Errorf("serve: unexpected record kind %v in cache dir", rec.Kind)
		}
	}, func(rec persist.Record, val any) error {
		s.cache.admit(rec.Key, val)
		return nil
	})
	if err != nil {
		s.persist.err = err.Error()
		return
	}
	s.persist.warm.Skipped += stats.Skipped
	// Count what was admitted by kind from the cache's own view: admit
	// dedups, so stats.Loaded could overcount under races.
	for _, key := range s.cache.entries.Keys() {
		if strings.HasPrefix(key, "eng|") {
			s.persist.warm.Engines++
		} else {
			s.persist.warm.Contexts++
		}
	}
}

// jobTerminalHook returns the job store's OnTerminal callback: persist
// the terminal snapshot and retire the write-ahead record — except on
// shutdown, where interrupted jobs keep their WAL so the next boot
// replays them.
func (s *Server) jobTerminalHook() func(snap jobs.Snapshot, shutdown bool) {
	store := s.persist.jobs
	return func(snap jobs.Snapshot, shutdown bool) {
		if shutdown && snap.Status == jobs.StatusCancelled {
			// Interrupted, not finished: keep the WAL and the checkpoints so
			// the next boot resumes from the last completed item.
			return
		}
		store.PutBlocking(persist.KindJob, jobSnapKey(snap.ID), 0, func() ([]byte, error) {
			return json.Marshal(snap)
		})
		store.Delete(persist.KindJob, jobWALKey(snap.ID))
		s.deleteCheckpoints(snap.ID, snap.Total)
	}
}

// writeCheckpoint enqueues one finished grid item onto the write-behind
// queue. Droppable by design: a lost checkpoint only means that item is
// re-evaluated on replay.
func (s *Server) writeCheckpoint(id string, idx int, res *Result) {
	store := s.persist.jobs
	if store == nil {
		return
	}
	store.Put(persist.KindCheckpoint, ckptKey(id, idx), 0, func() ([]byte, error) {
		payload, err := checkpointPayload(res)
		if err != nil {
			return nil, err
		}
		return persist.EncodeCheckpointRecord(persist.CheckpointRecord{JobID: id, Index: idx, Payload: payload})
	})
}

// deleteCheckpoints retires a terminal job's checkpoint records.
func (s *Server) deleteCheckpoints(id string, total int) {
	store := s.persist.jobs
	if store == nil {
		return
	}
	for i := 0; i < total; i++ {
		store.Delete(persist.KindCheckpoint, ckptKey(id, i))
	}
}

// logJobWAL write-ahead-logs an accepted sweep job.
func (s *Server) logJobWAL(id string, reqs []Request, opts SweepJobOptions) {
	store := s.persist.jobs
	if store == nil {
		return
	}
	wal := jobWAL{
		ID:         id,
		Requests:   reqs,
		Workers:    opts.Workers,
		TimeoutSec: opts.Timeout.Seconds(),
		CreatedAt:  time.Now(),
	}
	store.PutBlocking(persist.KindJob, jobWALKey(id), 0, func() ([]byte, error) {
		return json.Marshal(wal)
	})
}

// walExpressible reports whether every request survives the WAL's JSON
// round trip: prebuilt *Arch/*Net values are json:"-" and would replay
// as unresolvable empty requests.
func walExpressible(reqs []Request) bool {
	for i := range reqs {
		if reqs[i].Arch != nil || reqs[i].Net != nil {
			return false
		}
	}
	return true
}

// retireJobWAL removes a job's write-ahead record (cancel-before-run).
func (s *Server) retireJobWAL(id string) {
	if s.persist.jobs != nil {
		s.persist.jobs.Delete(persist.KindJob, jobWALKey(id))
	}
}

// warmStartJobs restores terminal snapshots under their original IDs and
// replays write-ahead jobs that never finished, seeding each replay with
// its on-disk checkpoints so only unfinished grid items are re-evaluated.
// Restores happen before replays, so a job with both a snapshot and a
// stale WAL resolves to the snapshot (Restore wins, the replay submit
// then fails and the WAL is retired). Checkpoints whose job is terminal
// or unknown are deleted.
func (s *Server) warmStartJobs() {
	store := s.persist.jobs
	if store == nil {
		return
	}
	var (
		snaps []jobs.Snapshot
		wals  []jobWAL
		ckpts = map[string][]persist.CheckpointRecord{}
	)
	stats, err := store.Scan(1, func(rec persist.Record) error {
		switch {
		case rec.Kind == persist.KindCheckpoint && strings.HasPrefix(rec.Key, "ckpt|"):
			ck, err := persist.DecodeCheckpointRecord(rec.Payload)
			if err != nil {
				return err
			}
			if ckptKey(ck.JobID, ck.Index) != rec.Key {
				return fmt.Errorf("serve: checkpoint key mismatch")
			}
			ckpts[ck.JobID] = append(ckpts[ck.JobID], ck)
			return nil
		case rec.Kind != persist.KindJob:
			return fmt.Errorf("serve: unexpected record kind %v in jobs dir", rec.Kind)
		case strings.HasPrefix(rec.Key, "job|"):
			var snap jobs.Snapshot
			if err := json.Unmarshal(rec.Payload, &snap); err != nil {
				return err
			}
			if jobSnapKey(snap.ID) != rec.Key {
				return fmt.Errorf("serve: job snapshot key mismatch")
			}
			snaps = append(snaps, snap)
		case strings.HasPrefix(rec.Key, "wal|"):
			var wal jobWAL
			if err := json.Unmarshal(rec.Payload, &wal); err != nil {
				return err
			}
			if jobWALKey(wal.ID) != rec.Key {
				return fmt.Errorf("serve: job WAL key mismatch")
			}
			wals = append(wals, wal)
		default:
			return fmt.Errorf("serve: unknown job record key %q", rec.Key)
		}
		return nil
	})
	if err != nil {
		s.persist.err = err.Error()
		return
	}
	s.persist.warm.Skipped += stats.Skipped

	// Submission order: restores then replays, each by ascending ID, so
	// List reads like the pre-restart timeline and replays keep their
	// FIFO dispatch order.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].ID < snaps[j].ID })
	sort.Slice(wals, func(i, j int) bool { return wals[i].ID < wals[j].ID })
	terminal := make(map[string]bool, len(snaps))
	for _, snap := range snaps {
		if err := s.jobs.Restore(snap); err != nil {
			s.persist.warm.Skipped++
			store.Delete(persist.KindJob, jobSnapKey(snap.ID))
			continue
		}
		terminal[snap.ID] = true
		s.persist.warm.Jobs++
	}
	replayed := make(map[string]bool, len(wals))
	for _, wal := range wals {
		if terminal[wal.ID] || len(wal.Requests) == 0 {
			s.retireJobWAL(wal.ID)
			continue
		}
		opts := SweepJobOptions{
			Workers: wal.Workers,
			Timeout: secondsToTimeout(wal.TimeoutSec),
		}
		run := s.newSweepRun(wal.ID, wal.Requests, opts, true)
		for _, ck := range ckpts[wal.ID] {
			if ck.Index >= len(wal.Requests) {
				continue // stale checkpoint from an unrelated run of this ID
			}
			res, err := decodeCheckpointPayload(ck.Payload)
			if err != nil {
				s.persist.warm.Skipped++
				store.Delete(persist.KindCheckpoint, ckptKey(ck.JobID, ck.Index))
				continue
			}
			run.restore(ck.Index, res)
			s.persist.warm.Checkpoints++
		}
		_, err := s.jobs.SubmitJob(jobs.Submission{
			ID:     wal.ID,
			Label:  sweepLabel(wal.Requests),
			Total:  len(wal.Requests),
			Fn:     run.fn(),
			Replay: true,
		})
		if err != nil {
			s.persist.warm.Skipped++
			s.retireJobWAL(wal.ID)
			continue
		}
		replayed[wal.ID] = true
		s.persist.warm.Replayed++
	}
	// Orphan checkpoints — jobs already terminal, or with no WAL at all —
	// will never be read again; reclaim the files.
	for id, list := range ckpts {
		if replayed[id] {
			continue
		}
		for _, ck := range list {
			store.Delete(persist.KindCheckpoint, ckptKey(id, ck.Index))
		}
	}
}

// closePersist flushes and closes the stores (after the job store has
// drained, so terminal snapshots from shutdown cancellations are queued).
func (s *Server) closePersist() {
	if s.persist.cache != nil {
		s.persist.cache.Close()
	}
	if s.persist.jobs != nil {
		s.persist.jobs.Close()
	}
}
