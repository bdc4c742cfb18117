package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func payload(s string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(s), nil }
}

// scanAll loads every record of the store, payloads included.
func scanAll(t *testing.T, s *Store) (map[string]Record, ScanStats) {
	t.Helper()
	got := map[string]Record{}
	stats, err := s.ScanOrdered(4, func(rec Record) (any, error) {
		return rec.Payload, nil
	}, func(rec Record, val any) error {
		rec.Payload = val.([]byte)
		got[rec.Key] = rec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// reopen closes s, which writes everything it queued, and opens its
// directory again.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	s.Close()
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	return s2
}

func TestStoreWriteScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KindEngine, "eng|aa", 2.5, payload("engine"))
	s.Put(KindLayerContext, "ctx|aa|bb", 0.5, payload("context"))
	s.Put(KindLayerContextCol, "ctx|aa|cc", 0.25, payload("columnar"))
	got, stats := scanAll(t, reopen(t, s))
	if stats.Files != 3 || stats.Loaded != 3 || stats.Skipped != 0 {
		t.Fatalf("scan stats = %+v, want 3 loaded", stats)
	}
	if rec := got["eng|aa"]; rec.Kind != KindEngine || rec.CostSec != 2.5 || string(rec.Payload) != "engine" {
		t.Fatalf("engine record = %+v", rec)
	}
	if rec := got["ctx|aa|bb"]; rec.Kind != KindLayerContext || string(rec.Payload) != "context" {
		t.Fatalf("context record = %+v", rec)
	}
}

// TestStoreRewriteAndDelete: rewriting a key replaces its file, so the
// earlier record is gone and the last write wins.
func TestStoreRewriteAndDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KindEngine, "eng|j1", 0, payload("v1"))
	s.Put(KindEngine, "eng|j1", 0, payload("v2"))
	got, stats := scanAll(t, reopen(t, s))
	if stats.Files != 1 {
		t.Fatalf("rewriting a key must replace its file, have %d files", stats.Files)
	}
	if string(got["eng|j1"].Payload) != "v2" {
		t.Fatalf("last write must win, got %q", got["eng|j1"].Payload)
	}
	if st := s.Stats(); st.Written != 2 || st.WriteErrors != 0 {
		t.Fatalf("stats after a rewrite = %+v, want 2 written", st)
	}
}

// TestStoreScanReclaimsBadFiles drops corrupt, truncated, foreign, and
// callback-rejected files: all skipped, all deleted, none fatal.
func TestStoreScanReclaimsBadFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KindEngine, "eng|good", 1, payload("good"))
	s.Put(KindEngine, "eng|rejected", 1, payload("rejected"))
	s.Close()

	good, err := EncodeRecord(Record{Kind: KindEngine, Key: "eng|x", CostSec: 1, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0xff
	for name, data := range map[string][]byte{
		"corrupt" + fileSuffix:   corrupt,
		"truncated" + fileSuffix: good[:len(good)-7],
		"empty" + fileSuffix:     {},
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Files without the store suffix are not the store's to manage.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	var keys []string
	stats, err := reopen(t, s).ScanOrdered(4, func(rec Record) (any, error) {
		if rec.Key == "eng|rejected" {
			return nil, fmt.Errorf("callback rejects this record")
		}
		return nil, nil
	}, func(rec Record, _ any) error {
		keys = append(keys, rec.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 5 || stats.Loaded != 1 || stats.Skipped != 4 {
		t.Fatalf("scan stats = %+v, want files=5 loaded=1 skipped=4", stats)
	}
	if len(keys) != 1 || keys[0] != "eng|good" {
		t.Fatalf("loaded keys = %v, want only eng|good", keys)
	}
	// Bad files are reclaimed; the good record and the foreign file stay.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("after scan dir has %v, want the good record and README.txt", names)
	}
}

// TestStoreScanOrderedAdmitsByAscendingCost pins the cost-ordered
// admission contract: admissions fire serially, most expensive record
// last, ties broken by descending key — so a least-recently-used cache
// fed by a boot warm-scan keeps the compiles that are costliest to
// redo — each with the value its preparation returned in place of the
// payload.
func TestStoreScanOrderedAdmitsByAscendingCost(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KindEngine, "eng|cheap", 0.25, payload("cheap"))
	s.Put(KindEngine, "eng|mid", 1.5, payload("mid"))
	s.Put(KindEngine, "eng|dear", 8, payload("dear"))
	// Equal costs: the tie-break is the key, descending.
	s.Put(KindLayerContext, "ctx|a|tie", 1.5, payload("tie-a"))
	s.Put(KindLayerContext, "ctx|b|tie", 1.5, payload("tie-b"))
	s = reopen(t, s)

	payloads := map[string]string{"eng|cheap": "cheap", "eng|mid": "mid", "eng|dear": "dear", "ctx|a|tie": "tie-a", "ctx|b|tie": "tie-b"}
	var keys []string
	stats, err := s.ScanOrdered(4, func(rec Record) (any, error) {
		return string(rec.Payload), nil
	}, func(rec Record, val any) error {
		if rec.Payload != nil || val != payloads[rec.Key] {
			t.Errorf("%s: admitted with payload %q and prepared value %v", rec.Key, rec.Payload, val)
		}
		keys = append(keys, rec.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 5 || stats.Loaded != 5 || stats.Skipped != 0 {
		t.Fatalf("scan stats = %+v, want 5 loaded", stats)
	}
	want := []string{"eng|cheap", "eng|mid", "ctx|b|tie", "ctx|a|tie", "eng|dear"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("admission order = %v, want %v", keys, want)
	}
}

// TestStoreScanOrderedReclaimsRejected: a record the preparation or the
// admission callback refuses is counted skipped and its file deleted,
// as is a record that fails to decode; only prepared records are offered for admission.
func TestStoreScanOrderedReclaimsRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KindEngine, "eng|keep", 2, payload("keep"))
	s.Put(KindEngine, "eng|reject", 5, payload("reject"))
	s.Put(KindEngine, "eng|unprepared", 3, payload("unprepared"))
	s = reopen(t, s)

	var admitted []string
	stats, err := s.ScanOrdered(2, func(rec Record) (any, error) {
		if rec.Key == "eng|unprepared" {
			return nil, fmt.Errorf("undecodable")
		}
		return nil, nil
	}, func(rec Record, _ any) error {
		admitted = append(admitted, rec.Key)
		if rec.Key == "eng|reject" {
			return fmt.Errorf("refused")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 3 || stats.Loaded != 1 || stats.Skipped != 2 {
		t.Fatalf("scan stats = %+v, want loaded=1 skipped=2", stats)
	}
	if fmt.Sprint(admitted) != "[eng|keep eng|reject]" {
		t.Fatalf("admitted %v, want the two prepared records by cost", admitted)
	}
	for _, key := range []string{"eng|reject", "eng|unprepared"} {
		if _, err := os.Stat(filepath.Join(dir, RecordName(KindEngine, key))); !os.IsNotExist(err) {
			t.Fatalf("refused record %s's file must be deleted", key)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, RecordName(KindEngine, "eng|keep"))); err != nil {
		t.Fatal("accepted record's file must survive")
	}
}

// TestStoreCloseDropsLateWrites: a Put after Close must not panic or
// block; it counts as dropped.
func TestStoreCloseDropsLateWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	s.Put(KindEngine, "eng|late", 1, payload("late"))
	if st := s.Stats(); st.Dropped != 1 || st.Written != 0 {
		t.Fatalf("stats after a closed write = %+v, want 1 dropped", st)
	}
}

func TestStoreOpenRejectsFileAsDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Fatal("opening a store over a regular file must fail")
	}
}

// TestStoreOpenListsOnce: Open reaps the temp files of writes a crash
// interrupted and keeps the record files it listed for the boot scan,
// which loads them all; a record queued after Open makes the scan list
// the directory again, so it is seen too.
func TestStoreOpenListsOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KindEngine, "eng|a", 1, payload("a"))
	s.Put(KindEngine, "eng|b", 1, payload("b"))
	s.Close()
	tmp := filepath.Join(dir, tmpPrefix+"123")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Open left the temp file of an unfinished write: %v", err)
	}
	if got, stats := scanAll(t, s); stats.Files != 2 || len(got) != 2 {
		t.Fatalf("boot scan stats %+v, records %v, want the 2 records", stats, got)
	}

	s = reopen(t, s)
	s.Put(KindEngine, "eng|c", 1, payload("c"))
	s.Close()
	if got, stats := scanAll(t, s); stats.Files != 3 || string(got["eng|c"].Payload) != "c" {
		t.Fatalf("scan after a write: stats %+v, records %v, want 3 including eng|c", stats, got)
	}
}
