package mapping_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/tensor"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/counts_digest.json")

// digestMacros and digestNetworks span every built-in macro (CiM arrays,
// digital, photonic, a TPU-like accelerator) over convolution, depthwise
// and matmul layers.
var (
	digestMacros   = []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim", "tpu-like", "photonic"}
	digestNetworks = []string{"resnet18", "mobilenetv3-large", "transformer"}
)

// digestCandidates is how many mapper.Sample candidates of each layer the
// digest covers.
const digestCandidates = 32

// writeCounts hashes every field of c: for every level and tensor the
// presence of an entry and its Tile/Reads/Writes/Crossings, then MACs,
// ActualMACs, Cycles, Instances, MappedOutside and the bits of
// Utilization.
func writeCounts(h hash.Hash, c *mapping.Counts) {
	for i := range c.PerLevel {
		for _, k := range []tensor.Kind{tensor.Input, tensor.Weight, tensor.Output} {
			if !c.Has(i, k) {
				fmt.Fprintf(h, "L%d %d -\n", i, k)
				continue
			}
			tc := c.PerLevel[i][k]
			fmt.Fprintf(h, "L%d %d %d %d %d %d\n", i, k, tc.Tile, tc.Reads, tc.Writes, tc.Crossings)
		}
	}
	fmt.Fprintf(h, "macs %d %d cycles %d inst %d out %v util %x\n",
		c.MACs, c.ActualMACs, c.Cycles, c.Instances, c.MappedOutside, math.Float64bits(c.Utilization))
}

// countsDigest returns the SHA-256 over the counts of the first
// digestCandidates sampled mappings of every layer of one network on one
// macro.
func countsDigest(t *testing.T, macro, network string) string {
	t.Helper()
	arch, err := macros.ByName(macro)
	if err != nil {
		t.Fatal(err)
	}
	net, err := workload.ByName(network)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for li, l := range net.Layers {
		sliced, err := arch.SlicedEinsum(l.Op)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := mapper.Sample(arch.Levels, sliced, arch.MapperOptions(digestCandidates, int64(li+1)))
		if err != nil {
			t.Fatalf("%s/%s layer %d: %v", macro, network, li, err)
		}
		for ci, m := range cands {
			fmt.Fprintf(h, "layer %d cand %d %s\n", li, ci, m)
			c, err := mapping.Analyze(arch.Levels, sliced, m)
			if err != nil {
				fmt.Fprintf(h, "error %v\n", err)
				continue
			}
			writeCounts(h, c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCountsDigest pins the count analysis: for every built-in macro and
// three networks, the counts of the first sampled candidates of every
// layer must hash to the recorded digest. Run with -update to rewrite the
// file after a deliberate model change.
func TestCountsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join("testdata", "counts_digest.json")
	got := map[string]string{}
	for _, mac := range digestMacros {
		for _, nw := range digestNetworks {
			got[mac+"/"+nw] = countsDigest(t, mac, nw)
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
			t.Errorf("%s: counts digest %s, want %s", k, got[k], w)
		}
	}
}
