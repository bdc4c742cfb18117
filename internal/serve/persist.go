package serve

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/serve/api"
)

// Durable warm starts: this file wires the on-disk store (package
// persist) into the serving layer. Cache fills stream to disk through a
// write-behind queue (the hot path never blocks on disk), and boot scans
// the cache dir in bounded parallel and admits entries through the
// normal eviction policy. A sweep re-sent after a restart therefore
// skips layer setup and reruns only the mapping searches.

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

// WarmStats summarizes one boot's warm-start scan (the wire type
// api.WarmStats).
type WarmStats = api.WarmStats

// PersistStats is the /healthz "persist" section (the wire type
// api.PersistStats).
type PersistStats = api.PersistStats

// persistState carries the server's optional durable cache store (nil
// when no directory is configured).
type persistState struct {
	store *persist.Store
	warm  WarmStats
	err   string
}

// PersistStats snapshots the persistence layer (zero-valued with
// persistence disabled).
func (s *Server) PersistStats() PersistStats {
	ps := PersistStats{Warm: s.persist.warm, Error: s.persist.err}
	if s.persist.store != nil {
		ps.Enabled = true
		ps.Cache = s.persist.store.Stats()
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

// openPersist opens the cache store and hooks it up: write latencies go
// to the persist histogram and every cache fill is written behind.
// Failure is recorded instead of propagated (a server with a broken disk
// still serves).
func (s *Server) openPersist(dir string) {
	if dir == "" {
		return
	}
	st, err := persist.Open(dir)
	if err != nil {
		s.persist.err = err.Error()
		return
	}
	h := s.met.persistWrite.With("cache")
	st.SetObserver(func(d time.Duration, ok bool) { h.Observe(d.Seconds()) })
	s.persist.store = st
	s.cache.onFill = s.cacheFillHook()
}

// cacheFillHook returns the cache's onFill callback: encode (on the
// writer goroutine) and enqueue each compiled engine/context, tagged with
// its compile cost so a future warm start admits the costliest last.
func (s *Server) cacheFillHook() func(key string, val any, costSec float64) {
	store := s.persist.store
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
	store := s.persist.store
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
			// Includes the retired kinds (JSON contexts, job records and
			// sweep checkpoints): the scan counts the record as skipped and
			// deletes it.
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
