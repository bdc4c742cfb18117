package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fileSuffix marks store files; Scan ignores everything else in the dir.
const fileSuffix = ".cws"

// tmpPrefix marks in-flight writes; Open reaps leftovers from crashes.
const tmpPrefix = ".tmp-"

// defaultQueue bounds the write-behind backlog. A full queue drops
// non-blocking Puts (the store is a cache; losing a write only costs a
// colder restart) and briefly blocks PutBlocking callers.
const defaultQueue = 1024

// Stats counts the store's write-behind and scan activity. Counter
// snapshots; safe to read concurrently with writes.
type Stats struct {
	Written     uint64 `json:"written"`
	Deleted     uint64 `json:"deleted"`
	WriteErrors uint64 `json:"write_errors"`
	Dropped     uint64 `json:"dropped"`
}

// ScanStats summarizes one Scan pass.
type ScanStats struct {
	// Files is the number of store files seen.
	Files int `json:"files"`
	// Loaded counts records decoded and accepted by the callback.
	Loaded int `json:"loaded"`
	// Skipped counts records rejected — corrupt, version-mismatched, or
	// refused by the callback; all are deleted from disk.
	Skipped int `json:"skipped"`
}

// op is one queued writer action: a pending write (encode != nil) or a
// deletion (encode == nil), or a flush barrier (ack != nil).
type op struct {
	name   string
	encode func() ([]byte, error)
	ack    chan struct{}
}

// Store is a directory of envelope files with a single background writer.
// All methods are safe for concurrent use.
type Store struct {
	dir string
	// boot holds the record files Open listed, for the first scan to use
	// instead of listing the directory again: the directory belongs to
	// the store, so the listing stays current until the store queues a
	// write or deletion, which drops it (send), as the scan that uses it
	// does.
	boot  atomic.Pointer[[]string]
	queue chan op
	wg    sync.WaitGroup

	// closing guards queue sends against Close: senders hold it for
	// reading, Close takes it for writing before closing the channel, so a
	// fill completing during shutdown is dropped instead of panicking.
	closing sync.RWMutex
	closed  bool

	written     atomic.Uint64
	deleted     atomic.Uint64
	writeErrors atomic.Uint64
	dropped     atomic.Uint64

	// observe, when set (via SetObserver, before the first Put), is
	// invoked from the writer goroutine with each completed write's
	// duration (encode + fsync + rename) and outcome — the seam the
	// serving layer hangs its persist-latency histogram on.
	observe func(d time.Duration, ok bool)
}

// SetObserver installs the write-latency callback. Call it right after
// Open, before any Put: the writer goroutine reads the field only when
// handling ops, and ops are ordered after the set through the queue
// channel, so no lock is needed.
func (s *Store) SetObserver(fn func(d time.Duration, ok bool)) { s.observe = fn }

// Open creates (if needed) the store directory and starts the writer.
// The directory is owned by one store in one process at a time; stale
// temp files left by a crashed predecessor are reaped here.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: dir, queue: make(chan op, defaultQueue)}
	if names, err := listRecords(dir, true); err == nil {
		s.boot.Store(&names)
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// listRecords returns the paths of the record files in dir, removing
// the temp files of unfinished writes on the way when reap is set.
func listRecords(dir string, reap bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		switch name := e.Name(); {
		case e.IsDir():
		case reap && strings.HasPrefix(name, tmpPrefix):
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, fileSuffix):
			names = append(names, filepath.Join(dir, name))
		}
	}
	return names, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the write-behind counters.
func (s *Store) Stats() Stats {
	return Stats{
		Written:     s.written.Load(),
		Deleted:     s.deleted.Load(),
		WriteErrors: s.writeErrors.Load(),
		Dropped:     s.dropped.Load(),
	}
}

// RecordName maps a record key to its stable file (or object) name.
// Keys embed hex fingerprints and separator characters, so the name is a
// hash of the key; the authoritative key is stored inside the envelope.
func RecordName(kind Kind, key string) string {
	sum := sha256.Sum256([]byte(key))
	return fmt.Sprintf("%s-%s%s", kind, hex.EncodeToString(sum[:16]), fileSuffix)
}

// fileName is RecordName joined onto the store directory.
func (s *Store) fileName(kind Kind, key string) string {
	return filepath.Join(s.dir, RecordName(kind, key))
}

// Put enqueues a record without blocking: encode runs on the writer
// goroutine (so the caller pays neither serialization nor disk time), and
// a full queue drops the record. Encode must capture immutable state.
func (s *Store) Put(kind Kind, key string, costSec float64, encode func() ([]byte, error)) {
	s.enqueue(kind, key, costSec, encode, false)
}

// PutBlocking enqueues a record, waiting for queue space. Use it for
// records that carry durability (job WAL entries) rather than cached
// recomputables.
func (s *Store) PutBlocking(kind Kind, key string, costSec float64, encode func() ([]byte, error)) {
	s.enqueue(kind, key, costSec, encode, true)
}

func (s *Store) enqueue(kind Kind, key string, costSec float64, encode func() ([]byte, error), block bool) {
	o := op{name: s.fileName(kind, key), encode: func() ([]byte, error) {
		payload, err := encode()
		if err != nil {
			return nil, err
		}
		return EncodeRecord(Record{Kind: kind, Key: key, CostSec: costSec, Payload: payload})
	}}
	s.send(o, block)
}

// send enqueues one writer op unless the store is closed (or, for
// non-blocking sends, the queue is full); refused ops count as dropped.
func (s *Store) send(o op, block bool) bool {
	s.closing.RLock()
	defer s.closing.RUnlock()
	if s.closed {
		if o.ack == nil { // a refused flush barrier is not a lost record
			s.dropped.Add(1)
		}
		return false
	}
	if o.ack == nil {
		s.boot.Store(nil)
	}
	if block {
		s.queue <- o
		return true
	}
	select {
	case s.queue <- o:
		return true
	default:
		s.dropped.Add(1)
		return false
	}
}

// Delete enqueues removal of a key's record (no-op if absent). Deletions
// follow earlier writes of the same key in FIFO order, so a
// write-then-delete sequence leaves no file behind.
func (s *Store) Delete(kind Kind, key string) {
	s.send(op{name: s.fileName(kind, key)}, true)
}

// Flush blocks until every previously enqueued write and deletion has
// reached disk.
func (s *Store) Flush() {
	ack := make(chan struct{})
	if s.send(op{ack: ack}, true) {
		<-ack
	}
}

// Close flushes and stops the writer. Later Puts and Deletes are dropped.
func (s *Store) Close() {
	s.closing.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue)
	}
	s.closing.Unlock()
	s.wg.Wait()
}

// writer drains the queue: atomic writes (temp file + rename), deletions,
// and flush barriers.
func (s *Store) writer() {
	defer s.wg.Done()
	for o := range s.queue {
		switch {
		case o.ack != nil:
			close(o.ack)
		case o.encode == nil:
			switch err := os.Remove(o.name); {
			case err == nil:
				s.deleted.Add(1)
			case !os.IsNotExist(err):
				s.writeErrors.Add(1)
			}
		default:
			start := time.Now()
			err := s.writeFile(o)
			if err != nil {
				s.writeErrors.Add(1)
			} else {
				s.written.Add(1)
			}
			if s.observe != nil {
				s.observe(time.Since(start), err == nil)
			}
		}
	}
}

func (s *Store) writeFile(o op) error {
	data, err := o.encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	// Sync before the rename: an atomic rename of unsynced data can
	// survive a crash as an empty or partial file under the final name,
	// and job WAL records are only as durable as this write. All of it
	// happens on the writer goroutine, never a request path.
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, o.name); err != nil {
		os.Remove(name)
		return err
	}
	s.syncDir()
	return nil
}

// syncDir flushes the directory entry after a rename so the new name
// itself survives a crash (best effort: some filesystems reject it).
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Scan decodes every store file, fanning decode + callback across at most
// workers goroutines (fn must be safe for concurrent calls). A record
// that fails to decode — or for which fn returns an error — is counted as
// skipped and its file deleted: the store is a cache, so the only recovery
// from a bad entry is recomputation, and keeping the file would re-fail
// every boot. Scan itself fails only when the directory is unreadable.
func (s *Store) Scan(workers int, fn func(Record) error) (ScanStats, error) {
	return s.scan(workers, func(_ string, rec Record) error { return fn(rec) })
}

// scan is Scan with a callback that also receives the record's file name.
func (s *Store) scan(workers int, fn func(name string, rec Record) error) (ScanStats, error) {
	var names []string
	if boot := s.boot.Swap(nil); boot != nil {
		names = *boot
	} else {
		var err error
		if names, err = listRecords(s.dir, false); err != nil {
			return ScanStats{}, fmt.Errorf("persist: %w", err)
		}
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > len(names) {
		workers = len(names)
	}
	var (
		mu    sync.Mutex
		stats = ScanStats{Files: len(names)}
		feed  = make(chan string)
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range feed {
				ok := s.loadOne(name, fn)
				mu.Lock()
				if ok {
					stats.Loaded++
				} else {
					stats.Skipped++
				}
				mu.Unlock()
			}
		}()
	}
	for _, name := range names {
		feed <- name
	}
	close(feed)
	wg.Wait()
	return stats, nil
}

// ScanOrdered is Scan with a cost-ordered admission pass: files are read
// and their envelopes decoded across at most workers goroutines, which
// also run prepare on each record (decoding and verifying its payload,
// say); then admit is called serially with each prepared value, in
// descending CostSec order (ties broken by key, ascending, so the order
// is deterministic). The Record admit receives carries no Payload: the
// prepared value replaces it. Use it for boot warm-starts feeding a
// budgeted cache: the most expensive compiles are admitted first, so if
// the cache cannot hold everything it keeps the records that are
// costliest to recompute. A record that fails to decode — or that
// prepare or admit refuses — is counted as skipped and its file deleted,
// exactly like Scan.
func (s *Store) ScanOrdered(workers int, prepare func(Record) (any, error), admit func(Record, any) error) (ScanStats, error) {
	type prepared struct {
		name string
		rec  Record
		val  any
	}
	var (
		mu   sync.Mutex
		recs []prepared
	)
	// Collect pass: reuse Scan's fan-out with a callback that prepares
	// and accumulates, so the parallel half (read + decode + checksum +
	// prepare) is shared and only admission is serialized.
	stats, err := s.scan(workers, func(name string, rec Record) error {
		val, err := prepare(rec)
		if err != nil {
			return err
		}
		rec.Payload = nil
		mu.Lock()
		recs = append(recs, prepared{name: name, rec: rec, val: val})
		mu.Unlock()
		return nil
	})
	if err != nil {
		return stats, err
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].rec.CostSec != recs[j].rec.CostSec {
			return recs[i].rec.CostSec > recs[j].rec.CostSec
		}
		return recs[i].rec.Key < recs[j].rec.Key
	})
	for _, p := range recs {
		if ferr := admit(p.rec, p.val); ferr != nil {
			os.Remove(p.name)
			stats.Loaded--
			stats.Skipped++
		}
	}
	return stats, nil
}

// loadOne reads, decodes, and hands one file to the callback, deleting it
// on any failure.
func (s *Store) loadOne(name string, fn func(string, Record) error) bool {
	data, err := os.ReadFile(name)
	if err == nil {
		var rec Record
		if rec, err = DecodeRecord(data); err == nil {
			err = fn(name, rec)
		}
	}
	if err != nil {
		os.Remove(name)
		return false
	}
	return true
}
