package mapper

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// keyLevels is the depth of the key tests' hierarchy: deep enough for
// level indices of two decimal digits.
const keyLevels = 13

// keyDims are the key tests' dims; two share a first byte.
var keyDims = []string{"M", "C", "K", "_IB", "_WB"}

// keyHierarchy is a deep hierarchy whose draws reach level indices >= 10
// and factors >= 128: storage at 0, 2-9 and 11, spatial meshes of 1024
// at 1 and 10, compute at 12. It pins a fixed loop at level 10.
func keyHierarchy(t testing.TB) ([]spec.Level, *tensor.Einsum, Options) {
	t.Helper()
	all := map[tensor.Kind]bool{tensor.Input: true, tensor.Weight: true, tensor.Output: true}
	levels := make([]spec.Level, keyLevels)
	for i := range levels {
		levels[i] = spec.Level{Name: "buf", Kind: spec.StorageLevel, Keeps: all}
	}
	for _, i := range []int{1, 10} {
		levels[i] = spec.Level{Name: "mesh", Kind: spec.SpatialLevel, Mesh: 1024, MeshX: 1024, MeshY: 1}
	}
	levels[keyLevels-1] = spec.Level{Name: "cell", Kind: spec.ComputeLevel,
		Keeps: map[tensor.Kind]bool{tensor.Weight: true}}
	e := &tensor.Einsum{
		Name: "key",
		Dims: []tensor.Dim{{Name: "M", Bound: 300}, {Name: "C", Bound: 256}, {Name: "K", Bound: 520},
			{Name: "_IB", Bound: 2}, {Name: "_WB", Bound: 129}},
		Spaces: []tensor.DataSpace{
			{Name: "Inputs", Kind: tensor.Input, Axes: []tensor.Axis{{{Dim: "M", Coeff: 1}}, {{Dim: "C", Coeff: 1}}, {{Dim: "_IB", Coeff: 1}}}},
			{Name: "Weights", Kind: tensor.Weight, Axes: []tensor.Axis{{{Dim: "C", Coeff: 1}}, {{Dim: "K", Coeff: 1}}, {{Dim: "_WB", Coeff: 1}}}},
			{Name: "Outputs", Kind: tensor.Output, Axes: []tensor.Axis{{{Dim: "M", Coeff: 1}}, {{Dim: "K", Coeff: 1}}}},
		},
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		MaxMappings:  64,
		Fixed:        map[int][]mapping.Loop{10: {{Dim: "K", Factor: 2}}},
		SpatialPrefs: map[int][]string{1: {"M", "_WB"}, 10: {"C", "K"}},
	}
	return levels, e, opts
}

// checkDrawKeys draws n candidates from seed and checks each draw's key
// against its String form: the key built during the draw is keyOf of
// the drawn mapping, and keys and String forms pair up one to one.
func checkDrawKeys(t *testing.T, seed int64, n int) {
	t.Helper()
	levels, e, opts := keyHierarchy(t)
	var s sampler
	if err := s.reset(nil, nil, false, levels, e, opts); err != nil {
		t.Fatal(err)
	}
	var src seedSource
	src.Seed(seed)
	byKey, byString := map[string]string{}, map[string]string{}
	for i := 0; i < n; i++ {
		s.draw(&src)
		m := s.drawn()
		key, str := string(s.key), m.String()
		if k := string(s.keyOf(m)); k != key {
			t.Fatalf("seed %d draw %d %s: key %x built during the draw, keyOf %x", seed, i, str, key, k)
		}
		if prev, ok := byKey[key]; ok && prev != str {
			t.Fatalf("seed %d: %s and %s share key %x", seed, prev, str, key)
		}
		if prev, ok := byString[str]; ok && prev != key {
			t.Fatalf("seed %d: %s has keys %x and %x", seed, str, prev, key)
		}
		byKey[key], byString[str] = str, key
	}
}

// drawn returns the sampler's current draw, checked or not, as a mapping
// with its dim names.
func (s *sampler) drawn() *mapping.Mapping {
	m := &mapping.Mapping{LevelLoops: make([][]mapping.Loop, len(s.loops))}
	for li, ll := range s.loops {
		for _, l := range ll {
			m.LevelLoops[li] = append(m.LevelLoops[li], mapping.Loop{Dim: s.dims[l.Dim], Factor: l.Factor})
		}
	}
	return m
}

// keyOf returns the dedup key of a mapping over the sampler's dims: the
// key buildKey builds for the same loops.
func (s *sampler) keyOf(m *mapping.Mapping) []byte {
	var key []byte
	for li, ll := range m.LevelLoops {
		for _, l := range ll {
			key = appendKey(key, li, slices.Index(s.dims, l.Dim), l.Factor)
		}
	}
	return key
}

// checkKeyPair checks that a and b get equal keys exactly when their
// String forms are equal.
func checkKeyPair(t *testing.T, a, b *mapping.Mapping) {
	t.Helper()
	s := &sampler{dims: keyDims}
	sameKey := string(s.keyOf(a)) == string(s.keyOf(b))
	if sameString := a.String() == b.String(); sameKey != sameString {
		t.Fatalf("%s vs %s: equal keys %v, equal String forms %v", a, b, sameKey, sameString)
	}
}

// loops builds a mapping over keyLevels levels from (level, dim, factor)
// triples, each appended to its level in order.
func loops(triples ...any) *mapping.Mapping {
	m := &mapping.Mapping{LevelLoops: make([][]mapping.Loop, keyLevels)}
	for i := 0; i+2 < len(triples); i += 3 {
		lvl := triples[i].(int)
		m.LevelLoops[lvl] = append(m.LevelLoops[lvl], mapping.Loop{Dim: triples[i+1].(string), Factor: triples[i+2].(int)})
	}
	return m
}

// TestSampleKeyMatchesString pins the dedup key's injectivity: keys are
// equal exactly when String forms are, for pairs that differ only in a
// loop's level (including levels >= 10), a factor across the one- and
// two-byte varint boundaries, a dim sharing a first byte, or loop order
// and grouping, and for random draws.
func TestSampleKeyMatchesString(t *testing.T) {
	pairs := [][2]*mapping.Mapping{
		{loops(1, "K", 2), loops(3, "K", 2)},
		{loops(0, "M", 4, 2, "C", 3), loops(0, "M", 4, 3, "C", 3)},
		{loops(1, "K", 2, 1, "C", 3), loops(1, "K", 2, 2, "C", 3)},
		{loops(10, "K", 2), loops(1, "K", 2)},
		{loops(11, "K", 2), loops(1, "K", 2, 1, "K", 2)},
		{loops(10, "M", 128), loops(10, "M", 0)},
		{loops(10, "M", 1), loops(10, "M", 257)},
		{loops(2, "C", 127), loops(2, "C", 128)},
		{loops(2, "C", 300, 3, "K", 2), loops(2, "C", 300, 3, "K", 2)},
		{loops(4, "_IB", 2), loops(4, "_WB", 2)},
		{loops(5, "M", 2, 5, "C", 2), loops(5, "C", 2, 5, "M", 2)},
		{loops(12, "C", 129), loops(12, "C", 129)},
		{loops(), loops()},
		{loops(), loops(0, "M", 1)},
	}
	for _, p := range pairs {
		checkKeyPair(t, p[0], p[1])
	}
	for seed := int64(1); seed <= 4; seed++ {
		checkDrawKeys(t, seed, 2000)
	}
}

// fuzzMapping decodes data into a mapping over keyLevels levels: every 4
// bytes are one loop (level, dim, 16-bit factor), appended to its level.
func fuzzMapping(data []byte) *mapping.Mapping {
	m := &mapping.Mapping{LevelLoops: make([][]mapping.Loop, keyLevels)}
	for ; len(data) >= 4; data = data[4:] {
		lvl := int(data[0]) % keyLevels
		dim := keyDims[int(data[1])%len(keyDims)]
		f := 1 + int(binary.BigEndian.Uint16(data[2:]))%700
		m.LevelLoops[lvl] = append(m.LevelLoops[lvl], mapping.Loop{Dim: dim, Factor: f})
	}
	return m
}

// mutate returns a copy of m with one edit, chosen by op and arg, to the
// loop at index arg: a move to level arg, a factor moved by 127, 128 or
// 256, a dim change, or a swap with its successor. Some edits change
// nothing, and then the keys must stay equal.
func mutate(m *mapping.Mapping, op, arg uint8) *mapping.Mapping {
	out := (&copier{batch: 1}).copy(m)
	type at struct{ lvl, j int }
	var all []at
	for lvl, ll := range out.LevelLoops {
		for j := range ll {
			all = append(all, at{lvl, j})
		}
	}
	if len(all) == 0 {
		return out
	}
	p := all[int(arg)%len(all)]
	l := &out.LevelLoops[p.lvl][p.j]
	switch op % 6 {
	case 0:
		moved := *l
		out.LevelLoops[p.lvl] = append(out.LevelLoops[p.lvl][:p.j], out.LevelLoops[p.lvl][p.j+1:]...)
		to := int(arg) % keyLevels
		out.LevelLoops[to] = append(out.LevelLoops[to], moved)
	case 1:
		l.Factor += 127
	case 2:
		l.Factor += 128
	case 3:
		l.Factor += 256
	case 4:
		l.Dim = keyDims[int(arg)%len(keyDims)]
	case 5:
		if ll := out.LevelLoops[p.lvl]; p.j+1 < len(ll) {
			ll[p.j], ll[p.j+1] = ll[p.j+1], ll[p.j]
		}
	}
	return out
}

// FuzzSampleKey checks the dedup key's injectivity on fuzzed mappings
// and their one-edit mutants, and on random draws from the fuzzed seed.
func FuzzSampleKey(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 0, 2, 3, 1, 0, 3}, uint8(0), uint8(2))
	f.Add(int64(2), []byte{10, 0, 0, 127, 11, 1, 1, 0, 0, 2, 0, 255}, uint8(2), uint8(1))
	f.Add(int64(3), []byte{12, 3, 0, 1, 12, 4, 0, 1}, uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, data []byte, op, arg uint8) {
		a := fuzzMapping(data)
		checkKeyPair(t, a, mutate(a, op, arg))
		checkKeyPair(t, a, fuzzMapping(append([]byte{arg, op, op, arg}, data...)))
		checkDrawKeys(t, seed, 256)
	})
}
