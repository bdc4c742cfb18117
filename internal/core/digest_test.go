package core_test

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

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/macros"
	"repro/internal/tensor"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/prepare_digest.json")

// digestMacros and digestNetworks span every built-in macro (CiM arrays,
// digital, photonic, a TPU-like accelerator) over convolution, depthwise
// and matmul layers; digestLayers is how many leading layers of each
// network the digest covers.
var (
	digestMacros   = []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim", "tpu-like", "photonic"}
	digestNetworks = []string{"resnet18", "mobilenetv3-large", "transformer"}
)

const digestLayers = 8

// digestOutputDepth is the reduction depth of the digested OutputPMF.
const digestOutputDepth = 16

// writePMF hashes every value and probability bit of p.
func writePMF(h hash.Hash, tag string, pts []dist.Point) {
	fmt.Fprintf(h, "%s %d\n", tag, len(pts))
	for _, pt := range pts {
		fmt.Fprintf(h, "%x %x\n", math.Float64bits(pt.Value), math.Float64bits(pt.Prob))
	}
}

// writeContext hashes every energy bit and both slice PMFs of an exported
// layer context.
func writeContext(h hash.Hash, d *core.LayerContextData) {
	fmt.Fprintf(h, "rails %d %d\n", d.InputRails, d.WeightRails)
	for i, em := range d.Energies {
		for k := tensor.Kind(0); k < tensor.NumKinds; k++ {
			ae, ok := em[k]
			if !ok {
				fmt.Fprintf(h, "L%d %d -\n", i, k)
				continue
			}
			fmt.Fprintf(h, "L%d %d %x %x %x\n", i, k,
				math.Float64bits(ae.Read), math.Float64bits(ae.Write), math.Float64bits(ae.Cross))
		}
	}
	writePMF(h, "in", d.InputSlicePMF)
	writePMF(h, "wgt", d.WeightSlicePMF)
}

// prepareDigest returns the SHA-256 over, for the leading layers of one
// network on one macro: the prepared layer context, the capped column
// sums of its cell products at every reduction depth of the macro, and
// the layer's synthesized output PMF at the macro's operand precisions.
// outputs memoizes OutputPMF hashes, which depend only on the layer and
// the precisions.
func prepareDigest(t *testing.T, macro, network string, outputs map[string]string) string {
	t.Helper()
	arch, err := macros.ByName(macro)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	net, err := workload.ByName(network)
	if err != nil {
		t.Fatal(err)
	}
	depths := eng.ColumnSumDepths()
	h := sha256.New()
	for li, l := range net.Layers[:min(digestLayers, len(net.Layers))] {
		fmt.Fprintf(h, "layer %d %s\n", li, l.Name)
		ctx, err := eng.PrepareLayer(l)
		if err != nil {
			fmt.Fprintf(h, "error %v\n", err)
			continue
		}
		writeContext(h, ctx.Export())

		cellProduct := dist.Mul(ctx.InputSlicePMF, ctx.WeightSlicePMF, 512).Rebin(128)
		for _, d := range depths {
			sum, err := dist.SumNCapped(cellProduct, int(d), 256)
			if err != nil {
				t.Fatal(err)
			}
			writePMF(h, fmt.Sprintf("sum %d", d), sum.Points())
		}

		key := fmt.Sprintf("%s/%d %d %d", network, li, arch.InputBits, arch.WeightBits)
		if _, ok := outputs[key]; !ok {
			oh := sha256.New()
			out, err := l.OutputPMF(arch.InputBits, arch.WeightBits, digestOutputDepth)
			if err != nil {
				fmt.Fprintf(oh, "error %v\n", err)
			} else {
				writePMF(oh, "out", out.Points())
			}
			outputs[key] = hex.EncodeToString(oh.Sum(nil))
		}
		fmt.Fprintf(h, "output %s\n", outputs[key])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPrepareDigest pins the data-value-dependent pipeline bit for bit:
// for every built-in macro and three networks, the prepared contexts,
// column sums and output PMFs of the leading layers must hash to the
// recorded digest. Run with -update to rewrite the file after a
// deliberate model change.
func TestPrepareDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join("testdata", "prepare_digest.json")
	got := map[string]string{}
	outputs := map[string]string{}
	for _, mac := range digestMacros {
		for _, nw := range digestNetworks {
			got[mac+"/"+nw] = prepareDigest(t, mac, nw, outputs)
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
			t.Errorf("%s: prepare digest %s, want %s", k, got[k], w)
		}
	}
}
