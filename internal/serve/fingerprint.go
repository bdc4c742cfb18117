package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"

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
//
// Each fingerprint is the SHA-256 of one text built in a buffer. The text
// is fixed: it is the key of every persisted cache record, so a change to
// it strands warm starts. Floats are written as fmt's %g writes them
// (shortest round-trip, 'g' format), integer-valued enums as integers,
// and string and int lists as fmt's %v writes them ("[a b]").

// ArchFingerprint returns a stable content hash of an architecture: the
// flattened level hierarchy, technology context (the node, with its
// scaling factors when they differ from the node table's), operand
// precisions, data encodings, and mapper guidance.
func ArchFingerprint(a *core.Arch) string {
	return digest(appendArch(make([]byte, 0, 2048), a))
}

// appendArch appends the text ArchFingerprint hashes.
func appendArch(b []byte, a *core.Arch) []byte {
	b = append(b, "arch|"...)
	b = append(b, a.Name...)
	b = append(b, "|node="...)
	b = strconv.AppendInt(b, int64(a.Node.Nm), 10)
	b = appendFloat(append(b, "|vdd="...), a.Vdd)
	b = appendFloat(append(b, "|clk="...), a.ClockHz)
	b = appendInts(append(b, "|bits="...), '/', a.InputBits, a.WeightBits, a.DACBits, a.CellBits)
	b = append(b, "|enc="...)
	b = append(b, a.InputEncoding...)
	b = append(b, '/')
	b = append(b, a.WeightEncoding...)
	b = strconv.AppendInt(append(b, "|adcshare="...), int64(a.ADCShare), 10)
	b = append(b, '|')
	// The node's scaling factors feed every component model. A node
	// equal to its table entry is named by Nm alone, which keeps the
	// fingerprints of unscaled nodes (every built-in macro) as they were.
	if ref, err := tech.ByNm(a.Node.Nm); err != nil || ref != a.Node {
		b = appendFloat(append(b, "nodef="...), a.Node.Vdd)
		b = appendFloat(append(b, '/'), a.Node.Energy)
		b = appendFloat(append(b, '/'), a.Node.Area)
		b = appendFloat(append(b, '/'), a.Node.Delay)
		b = append(b, '|')
	}
	b = strconv.AppendInt(append(b, "tlvl="...), int64(a.TemporalLevel), 10)
	b = strconv.AppendInt(append(b, "|wsl="...), int64(a.WeightSliceLevel), 10)
	b = strconv.AppendInt(append(b, "|isl="...), int64(a.InputSliceLevel), 10)
	b = appendStrings(append(b, "|inner="...), a.InnerDims)
	b = append(b, '|')

	b = appendCount(b, "sprefs", len(a.SpatialPrefs))
	keys := make([]int, 0, len(a.SpatialPrefs))
	for k := range a.SpatialPrefs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = strconv.AppendInt(b, int64(k), 10)
		b = appendStrings(append(b, '='), a.SpatialPrefs[k])
		b = append(b, ';')
	}
	b = append(b, "}|"...)

	b = appendCount(b, "ttargets", len(a.TemporalTargets))
	for _, k := range sortedKeys(a.TemporalTargets) {
		b = append(b, k...)
		b = strconv.AppendInt(append(b, '='), int64(a.TemporalTargets[k]), 10)
		b = append(b, ';')
	}
	b = append(b, "}|"...)

	for i := range a.Levels {
		lv := &a.Levels[i]
		b = append(b, "lvl|"...)
		b = append(b, lv.Name...)
		b = strconv.AppendInt(append(b, '|'), int64(lv.Kind), 10)
		b = append(b, '|')
		b = append(b, lv.Class...)
		b = appendInts(append(b, "|mesh="...), '/', lv.Mesh, lv.MeshX, lv.MeshY)
		b = append(b, '|')
		for _, k := range sortedKeys(lv.Attrs) {
			b = append(b, "attr|"...)
			b = append(b, k...)
			b = appendFloat(append(b, '='), lv.Attrs[k])
			b = append(b, '|')
		}
		b = appendKindSet(b, "keep", lv.Keeps)
		b = appendKindSet(b, "transit", lv.Transits)
		b = appendKindSet(b, "coalesce", lv.CoalesceT)
		b = appendKindSet(b, "spatial", lv.SpatialReuse)
	}
	return b
}

// LayerFingerprint returns a stable content hash of one workload layer:
// its einsum (dimensions, bounds, projections) and operand statistics.
func LayerFingerprint(l workload.Layer) string {
	return digest(appendLayer(make([]byte, 0, 512), l))
}

// appendLayer appends the text LayerFingerprint hashes.
func appendLayer(b []byte, l workload.Layer) []byte {
	b = append(b, "layer|"...)
	b = append(b, l.Name...)
	b = strconv.AppendInt(append(b, "|rep="...), int64(l.Repeat), 10)
	b = strconv.AppendBool(append(b, "|act="...), l.Act.Signed)
	b = appendFloat(append(b, '/'), l.Act.Sparsity)
	b = appendFloat(append(b, '/'), l.Act.Mean)
	b = appendFloat(append(b, '/'), l.Act.Std)
	b = appendFloat(append(b, '/'), l.Act.Corr)
	b = appendFloat(append(b, "|wgt="...), l.Wgt.Std)
	b = append(b, '|')
	if l.Op == nil {
		return b
	}
	b = append(b, "op|"...)
	b = append(b, l.Op.Name...)
	b = append(b, '|')
	for _, d := range l.Op.Dims {
		b = append(b, "dim|"...)
		b = append(b, d.Name...)
		b = strconv.AppendInt(append(b, '='), int64(d.Bound), 10)
		b = append(b, '|')
	}
	for _, s := range l.Op.Spaces {
		b = append(b, "space|"...)
		b = append(b, s.Name...)
		b = strconv.AppendInt(append(b, '|'), int64(s.Kind), 10)
		b = append(b, '|')
		for _, ax := range s.Axes {
			for _, c := range ax {
				b = append(b, c.Dim...)
				b = strconv.AppendInt(append(b, '*'), int64(c.Coeff), 10)
				b = append(b, '+')
			}
			b = append(b, ';')
		}
	}
	return b
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendFloat appends f as fmt's %g does.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendInts appends vs separated by sep.
func appendInts(b []byte, sep byte, vs ...int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, sep)
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendStrings appends ss as fmt's %v does: "[a b c]".
func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, s...)
	}
	return append(b, ']')
}

// appendCount opens a keyed section: "tag[n]{".
func appendCount(b []byte, tag string, n int) []byte {
	b = append(b, tag...)
	b = strconv.AppendInt(append(b, '['), int64(n), 10)
	return append(b, "]{"...)
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendKindSet appends the tensor kinds m marks true, in increasing
// order: "tag=[0 2]|".
func appendKindSet(b []byte, tag string, m map[tensor.Kind]bool) []byte {
	var buf [8]int
	kinds := buf[:0]
	for k, v := range m {
		if v {
			kinds = append(kinds, int(k))
		}
	}
	slices.Sort(kinds)
	b = append(b, tag...)
	b = appendInts(append(b, "=["...), ' ', kinds...)
	return append(b, "]|"...)
}
