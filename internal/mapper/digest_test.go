package mapper_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/sample_digest.json")

// sampleDigest hashes the String of every mapper.Sample candidate of
// every ResNet18 layer on the base macro for one (seed, shards) pair.
func sampleDigest(t *testing.T, seed int64, shards int) string {
	t.Helper()
	arch, err := macros.ByName("base")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for li, l := range workload.ResNet18().Layers {
		sliced, err := arch.SlicedEinsum(l.Op)
		if err != nil {
			t.Fatal(err)
		}
		opts := arch.MapperOptions(64, seed)
		opts.Shards = shards
		cands, err := mapper.Sample(arch.Levels, sliced, opts)
		if err != nil {
			t.Fatalf("layer %d: %v", li, err)
		}
		for ci, m := range cands {
			fmt.Fprintf(h, "layer %d cand %d %s\n", li, ci, m)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSampleDigest pins the sampler's candidate sequence, and with it
// every rng draw, for seeds 1-3 at each shard mode. Run with -update to
// rewrite the file after a deliberate change to the sampler.
func TestSampleDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join("testdata", "sample_digest.json")
	got := map[string]string{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, shards := range []int{0, 1, 4} {
			got[fmt.Sprintf("seed=%d shards=%d", seed, shards)] = sampleDigest(t, seed, shards)
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("digest file has %d entries, computed %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: sample digest %s, want %s", k, got[k], w)
		}
	}
}
