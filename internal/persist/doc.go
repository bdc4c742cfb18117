// Package persist is the durable warm-start store: a versioned,
// fingerprint-addressed on-disk cache of the expensive state the serving
// layer otherwise recomputes after every restart — per-layer amortized
// contexts (the PMFs and per-action energy tables of Algorithm 1 lines
// 3-7).
//
// # File format
//
// Every record is one file containing a self-describing binary envelope:
//
//	offset  size  field
//	0       4     magic "CWS1" (CiM warm-start store)
//	4       2     format version, big-endian uint16 (currently 1)
//	6       1     record kind (KindLayerContextCol; 1, 2, 3 and 5 are
//	              reserved for the retired engine, JSON layer-context,
//	              job and sweep-checkpoint kinds)
//	7       8     cost, big-endian IEEE-754 float64 — measured compile
//	              seconds (sets the warm-start admission order, costliest
//	              last)
//	15      4     key length, big-endian uint32
//	19      n     key (the content-addressed cache key)
//	19+n    4     payload length, big-endian uint32
//	23+n    m     payload (kind-specific, see codec.go)
//	23+n+m  4     CRC-32 (IEEE) of all preceding bytes
//
// Filenames are derived from the kind and a hash of the key
// ("<kind>-<sha256(key) prefix>.cws"), so rewriting a key atomically
// replaces its record; the authoritative key lives inside the envelope.
//
// # Versioning and corruption policy
//
// The store is a cache, never a source of truth, so reads are strictly
// best-effort: a file with a bad magic, an unknown format version, a
// truncated envelope, or a checksum mismatch is skipped AND deleted during
// ScanOrdered — never a fatal error. Format changes bump the version; old files
// are then reclaimed on the next scan rather than migrated. Payload-level
// schema drift is caught one level up: the serving layer recomputes each
// record's content fingerprint after decoding and discards mismatches, so
// a stale file can at worst cost a recompute, never a wrong answer.
//
// # Write-behind
//
// Writes go through a single background writer goroutine. Put is
// non-blocking — when the queue is full the record is dropped and counted
// (the hot path must never wait on disk; a dropped record only means a
// colder next restart).
package persist
