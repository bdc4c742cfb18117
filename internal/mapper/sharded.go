package mapper

import (
	"math/rand"

	"repro/internal/mapping"
)

// The sharded candidate pipeline lifts the serial-sampler ceiling on
// parallel search: with a single seeded stream, generation is the Amdahl
// bottleneck that bounds parallel Search speedup no matter how many
// evaluation workers run. Here G independent generators (shard g draws
// from Seed ^ g) produce candidates concurrently, and a cheap merger
// interleaves them into one global sequence.
//
// Determinism is the design constraint, not an afterthought. Each shard's
// stream is a pure function of (Seed, g): its own rng, its own in-shard
// dedup set (seeded with the greedy mapping's key), and the same tries
// budget as the unsharded loop. The merger visits live shards in fixed
// round-robin order starting at shard 0, takes exactly one fresh
// candidate per visit (cross-shard duplicates are skipped by pulling the
// *same* shard's next candidate, so a dup never perturbs the rotation),
// assigns global indices sequentially, and drops a shard from the
// rotation only when its stream is exhausted — which is itself
// deterministic. No step depends on goroutine timing, so the global
// sequence — and any (cost, index) reduction over it — is bit-identical
// across runs and worker counts for a given (Seed, Shards).

// shardCand carries one candidate from a shard generator to the merger,
// with its mapping.String key precomputed on the shard goroutine so the
// merger's cross-shard dedup costs a map probe, not a re-render.
type shardCand struct {
	key string
	m   *mapping.Mapping
}

// shardChanDepth buffers each shard's channel so generators run ahead of
// the merger instead of handing off synchronously.
const shardChanDepth = 8

// sampleSeqSharded continues the candidate sequence after the greedy
// mapping (already yielded as index 0 by sampleSeq) using opts.Shards
// concurrent generators, each a fork of s, and a deterministic merge.
// greedyKey is the greedy mapping's String key; every shard dedups
// against it.
func sampleSeqSharded(s *sampler, opts Options, greedyKey string, yield func(int, *mapping.Mapping) bool) error {
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	// done tells generators to stop when the merge ends early (budget
	// reached or yield returned false); closing it unblocks any shard
	// parked on a full channel.
	done := make(chan struct{})
	defer close(done)

	chans := make([]chan shardCand, shards)
	for g := 0; g < shards; g++ {
		ch := make(chan shardCand, shardChanDepth)
		chans[g] = ch
		go func(g int, ch chan<- shardCand, s *sampler) {
			defer close(ch)
			// The same stream and budgets as the unsharded sampler, so
			// Shards == 1 reproduces it byte-for-byte.
			rng := rand.New(rand.NewSource(opts.Seed ^ int64(g)))
			s.stream(rng, map[string]bool{greedyKey: true}, func(key string, m *mapping.Mapping) bool {
				select {
				case ch <- shardCand{key: key, m: m}:
					return true
				case <-done:
					return false
				}
			})
		}(g, ch, s.fork())
	}

	// Deterministic merge: fixed round-robin over live shards.
	live := make([]int, shards)
	for g := range live {
		live[g] = g
	}
	merged := map[string]bool{greedyKey: true}
	n := 1
	at := 0
	for n < opts.MaxMappings && len(live) > 0 {
		if at >= len(live) {
			at = 0
		}
		g := live[at]
		for {
			c, ok := <-chans[g]
			if !ok {
				// Shard exhausted: remove it; `at` now points at the next
				// shard in rotation.
				live = append(live[:at], live[at+1:]...)
				break
			}
			if merged[c.key] {
				// Cross-shard duplicate: pull this same shard's next
				// candidate so the rotation is unaffected.
				continue
			}
			merged[c.key] = true
			if !yield(n, c.m) {
				return nil
			}
			n++
			at++
			break
		}
	}
	return nil
}
