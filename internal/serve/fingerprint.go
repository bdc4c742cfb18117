package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/tech"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Fingerprints give the cache its content addressing: two requests that
// describe the same (architecture, layer, encoding) hash to the same key
// no matter how the description was constructed (macro builder, textual
// spec, or programmatic Arch). Everything that feeds the compiled engine
// or the per-layer amortized state is folded into the digest; map-typed
// fields are serialized in sorted key order so the hash is stable.

// ArchFingerprint returns a stable content hash of an architecture: the
// flattened level hierarchy, technology context (the node, with its
// scaling factors when they differ from the node table's), operand
// precisions, data encodings, and mapper guidance.
func ArchFingerprint(a *core.Arch) string {
	h := sha256.New()
	fmt.Fprintf(h, "arch|%s|node=%d|vdd=%g|clk=%g|bits=%d/%d/%d/%d|enc=%s/%s|adcshare=%d|",
		a.Name, a.Node.Nm, a.Vdd, a.ClockHz,
		a.InputBits, a.WeightBits, a.DACBits, a.CellBits,
		a.InputEncoding, a.WeightEncoding, a.ADCShare)
	// The node's scaling factors feed every component model. A node
	// equal to its table entry is named by Nm alone, which keeps the
	// fingerprints of unscaled nodes (every built-in macro) as they were.
	if ref, err := tech.ByNm(a.Node.Nm); err != nil || ref != a.Node {
		fmt.Fprintf(h, "nodef=%g/%g/%g/%g|", a.Node.Vdd, a.Node.Energy, a.Node.Area, a.Node.Delay)
	}
	fmt.Fprintf(h, "tlvl=%d|wsl=%d|isl=%d|inner=%v|", a.TemporalLevel, a.WeightSliceLevel, a.InputSliceLevel, a.InnerDims)
	writeIntKeyed(h, "sprefs", len(a.SpatialPrefs), func(w io.Writer) {
		for _, k := range sortedIntKeys(a.SpatialPrefs) {
			fmt.Fprintf(w, "%d=%v;", k, a.SpatialPrefs[k])
		}
	})
	writeIntKeyed(h, "ttargets", len(a.TemporalTargets), func(w io.Writer) {
		keys := make([]string, 0, len(a.TemporalTargets))
		for k := range a.TemporalTargets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s=%d;", k, a.TemporalTargets[k])
		}
	})
	for i := range a.Levels {
		lv := &a.Levels[i]
		fmt.Fprintf(h, "lvl|%s|%d|%s|mesh=%d/%d/%d|", lv.Name, lv.Kind, lv.Class, lv.Mesh, lv.MeshX, lv.MeshY)
		writeAttrs(h, lv.Attrs)
		writeKindSet(h, "keep", lv.Keeps)
		writeKindSet(h, "transit", lv.Transits)
		writeKindSet(h, "coalesce", lv.CoalesceT)
		writeKindSet(h, "spatial", lv.SpatialReuse)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LayerFingerprint returns a stable content hash of one workload layer:
// its einsum (dimensions, bounds, projections) and operand statistics.
func LayerFingerprint(l workload.Layer) string {
	h := sha256.New()
	fmt.Fprintf(h, "layer|%s|rep=%d|act=%v/%g/%g/%g/%g|wgt=%g|",
		l.Name, l.Repeat,
		l.Act.Signed, l.Act.Sparsity, l.Act.Mean, l.Act.Std, l.Act.Corr,
		l.Wgt.Std)
	if l.Op != nil {
		fmt.Fprintf(h, "op|%s|", l.Op.Name)
		for _, d := range l.Op.Dims {
			fmt.Fprintf(h, "dim|%s=%d|", d.Name, d.Bound)
		}
		for _, s := range l.Op.Spaces {
			fmt.Fprintf(h, "space|%s|%d|", s.Name, s.Kind)
			for _, ax := range s.Axes {
				for _, c := range ax {
					fmt.Fprintf(h, "%s*%d+", c.Dim, c.Coeff)
				}
				fmt.Fprint(h, ";")
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeIntKeyed(w io.Writer, tag string, n int, body func(io.Writer)) {
	fmt.Fprintf(w, "%s[%d]{", tag, n)
	if n > 0 {
		body(w)
	}
	fmt.Fprint(w, "}|")
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func writeAttrs(w io.Writer, attrs map[string]float64) {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "attr|%s=%g|", k, attrs[k])
	}
}

func writeKindSet(w io.Writer, tag string, m map[tensor.Kind]bool) {
	kinds := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			kinds = append(kinds, int(k))
		}
	}
	sort.Ints(kinds)
	fmt.Fprintf(w, "%s=%v|", tag, kinds)
}
