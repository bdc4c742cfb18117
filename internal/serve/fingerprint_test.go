package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The fmt-based fingerprint texts the buffer builders replaced, kept as
// the oracle of their bytes: every persisted cache key is a hash of them.

func oracleArchText(a *core.Arch) []byte {
	var h bytes.Buffer
	fmt.Fprintf(&h, "arch|%s|node=%d|vdd=%g|clk=%g|bits=%d/%d/%d/%d|enc=%s/%s|adcshare=%d|",
		a.Name, a.Node.Nm, a.Vdd, a.ClockHz,
		a.InputBits, a.WeightBits, a.DACBits, a.CellBits,
		a.InputEncoding, a.WeightEncoding, a.ADCShare)
	if ref, err := tech.ByNm(a.Node.Nm); err != nil || ref != a.Node {
		fmt.Fprintf(&h, "nodef=%g/%g/%g/%g|", a.Node.Vdd, a.Node.Energy, a.Node.Area, a.Node.Delay)
	}
	fmt.Fprintf(&h, "tlvl=%d|wsl=%d|isl=%d|inner=%v|", a.TemporalLevel, a.WeightSliceLevel, a.InputSliceLevel, a.InnerDims)
	oracleIntKeyed(&h, "sprefs", len(a.SpatialPrefs), func(w io.Writer) {
		keys := make([]int, 0, len(a.SpatialPrefs))
		for k := range a.SpatialPrefs {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%d=%v;", k, a.SpatialPrefs[k])
		}
	})
	oracleIntKeyed(&h, "ttargets", len(a.TemporalTargets), func(w io.Writer) {
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
		fmt.Fprintf(&h, "lvl|%s|%d|%s|mesh=%d/%d/%d|", lv.Name, lv.Kind, lv.Class, lv.Mesh, lv.MeshX, lv.MeshY)
		keys := make([]string, 0, len(lv.Attrs))
		for k := range lv.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&h, "attr|%s=%g|", k, lv.Attrs[k])
		}
		oracleKindSet(&h, "keep", lv.Keeps)
		oracleKindSet(&h, "transit", lv.Transits)
		oracleKindSet(&h, "coalesce", lv.CoalesceT)
		oracleKindSet(&h, "spatial", lv.SpatialReuse)
	}
	return h.Bytes()
}

func oracleLayerText(l workload.Layer) []byte {
	var h bytes.Buffer
	fmt.Fprintf(&h, "layer|%s|rep=%d|act=%v/%g/%g/%g/%g|wgt=%g|",
		l.Name, l.Repeat,
		l.Act.Signed, l.Act.Sparsity, l.Act.Mean, l.Act.Std, l.Act.Corr,
		l.Wgt.Std)
	if l.Op != nil {
		fmt.Fprintf(&h, "op|%s|", l.Op.Name)
		for _, d := range l.Op.Dims {
			fmt.Fprintf(&h, "dim|%s=%d|", d.Name, d.Bound)
		}
		for _, s := range l.Op.Spaces {
			fmt.Fprintf(&h, "space|%s|%d|", s.Name, s.Kind)
			for _, ax := range s.Axes {
				for _, c := range ax {
					fmt.Fprintf(&h, "%s*%d+", c.Dim, c.Coeff)
				}
				fmt.Fprint(&h, ";")
			}
		}
	}
	return h.Bytes()
}

func oracleIntKeyed(w io.Writer, tag string, n int, body func(io.Writer)) {
	fmt.Fprintf(w, "%s[%d]{", tag, n)
	if n > 0 {
		body(w)
	}
	fmt.Fprint(w, "}|")
}

func oracleKindSet(w io.Writer, tag string, m map[tensor.Kind]bool) {
	kinds := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			kinds = append(kinds, int(k))
		}
	}
	sort.Ints(kinds)
	fmt.Fprintf(w, "%s=%v|", tag, kinds)
}

// TestFingerprintTextMatchesFmt: the fingerprint texts are byte-equal to
// their fmt-built oracles for every built-in macro, bare and under each
// system scenario, for a node-scaled macro with odd floats and mapper
// guidance, and for every layer of every zoo network and a layer with
// odd statistics and no einsum; so no cache key moves.
func TestFingerprintTextMatchesFmt(t *testing.T) {
	var archs []*core.Arch
	for _, c := range builtinFingerprints {
		a, err := resolveArch(&Request{Macro: c.macro, Scenario: c.scenario})
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, a)
	}
	odd := *archs[0]
	odd.Name = "odd name|with bars"
	odd.Node.Energy = 1.0000000000000002
	odd.Vdd = math.Inf(1)
	odd.ClockHz = 1e21
	odd.InnerDims = []string{"C", "K"}
	odd.SpatialPrefs = map[int][]string{3: {"K", "N"}, -1: nil, 0: {}}
	odd.TemporalTargets = map[string]int{"P": 2, "C": -1}
	archs = append(archs, &odd)
	cases := 0
	for _, a := range archs {
		if got, want := appendArch(nil, a), oracleArchText(a); !bytes.Equal(got, want) {
			t.Fatalf("arch %s: text\n%s\nfmt oracle\n%s", a.Name, got, want)
		}
		cases++
	}

	var layers []workload.Layer
	for _, name := range workload.Names() {
		net, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, net.Layers...)
	}
	layers = append(layers, workload.Layer{
		Name: "no einsum", Repeat: -3,
		Act: workload.ActStats{Signed: true, Sparsity: 1e-7, Mean: math.Copysign(0, -1), Std: math.NaN(), Corr: 123456789},
		Wgt: workload.WeightStats{Std: 0.1 + 0.2},
	})
	for _, l := range layers {
		if got, want := appendLayer(nil, l), oracleLayerText(l); !bytes.Equal(got, want) {
			t.Fatalf("layer %s: text\n%s\nfmt oracle\n%s", l.Name, got, want)
		}
		cases++
	}
	if cases < 80 {
		t.Fatalf("only %d fingerprint texts compared", cases)
	}
}
