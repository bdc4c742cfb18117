// Package tensor describes DNN workloads as extended-Einsum operations:
// a set of named iteration dimensions plus data spaces (tensors) whose
// coordinates are affine projections of those dimensions. This mirrors the
// workload representation CiMLoop inherits from Timeloop (paper §II-B):
// convolutions, matrix multiplies, and depthwise convolutions all fit.
package tensor

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes the roles tensors play in a tensor operation.
type Kind int

// Tensor roles. Inputs and Weights are read-only; Outputs are read-modify-
// write accumulated.
const (
	Input Kind = iota
	Weight
	Output
)

// NumKinds is the number of tensor roles: per-role tables indexed by Kind
// have this length.
const NumKinds = 3

// String returns the conventional name of the tensor role.
func (k Kind) String() string {
	switch k {
	case Input:
		return "Inputs"
	case Weight:
		return "Weights"
	case Output:
		return "Outputs"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dim is a named iteration dimension with its loop bound.
type Dim struct {
	Name  string
	Bound int
}

// Coef is one term of an affine axis projection: Coeff * index(Dim).
type Coef struct {
	Dim   string
	Coeff int
}

// Axis is one coordinate of a data space, an affine combination of
// iteration dimensions (e.g. the input height axis of a convolution is
// stride*P + R).
type Axis []Coef

// DataSpace is a tensor accessed by an Einsum: a role plus the affine
// projection from iteration space to tensor coordinates.
type DataSpace struct {
	Name string
	Kind Kind
	Axes []Axis
}

// Einsum is one tensor operation: iteration dimensions and the data spaces
// they index. The iteration space is the full rectangular product of the
// dimension bounds; each point performs one multiply-accumulate.
type Einsum struct {
	Name   string
	Dims   []Dim
	Spaces []DataSpace
}

// Validate checks that dimension names are unique with positive bounds and
// that every projection references declared dimensions. Einsums have a
// handful of dimensions and spaces, so names are checked by scanning
// rather than through maps.
func (e *Einsum) Validate() error {
	if e.Name == "" {
		return errors.New("tensor: einsum has no name")
	}
	if len(e.Dims) == 0 {
		return fmt.Errorf("tensor: einsum %q has no dimensions", e.Name)
	}
	for i, d := range e.Dims {
		if d.Name == "" {
			return fmt.Errorf("tensor: einsum %q has an unnamed dimension", e.Name)
		}
		if e.hasDim(d.Name, i) {
			return fmt.Errorf("tensor: einsum %q declares dimension %q twice", e.Name, d.Name)
		}
		if d.Bound <= 0 {
			return fmt.Errorf("tensor: einsum %q dimension %q has bound %d", e.Name, d.Name, d.Bound)
		}
	}
	if len(e.Spaces) == 0 {
		return fmt.Errorf("tensor: einsum %q has no data spaces", e.Name)
	}
	var haveOutput bool
	for i, s := range e.Spaces {
		if s.Name == "" {
			return fmt.Errorf("tensor: einsum %q has an unnamed data space", e.Name)
		}
		for _, prev := range e.Spaces[:i] {
			if prev.Name == s.Name {
				return fmt.Errorf("tensor: einsum %q declares data space %q twice", e.Name, s.Name)
			}
		}
		if s.Kind == Output {
			haveOutput = true
		}
		for _, ax := range s.Axes {
			if len(ax) == 0 {
				return fmt.Errorf("tensor: einsum %q space %q has an empty axis", e.Name, s.Name)
			}
			for _, c := range ax {
				if !e.hasDim(c.Dim, len(e.Dims)) {
					return fmt.Errorf("tensor: einsum %q space %q references unknown dimension %q", e.Name, s.Name, c.Dim)
				}
				if c.Coeff == 0 {
					return fmt.Errorf("tensor: einsum %q space %q has a zero coefficient on %q", e.Name, s.Name, c.Dim)
				}
			}
		}
	}
	if !haveOutput {
		return fmt.Errorf("tensor: einsum %q has no output data space", e.Name)
	}
	return nil
}

// hasDim reports whether one of the first n dimensions is named name.
func (e *Einsum) hasDim(name string, n int) bool {
	for _, d := range e.Dims[:n] {
		if d.Name == name {
			return true
		}
	}
	return false
}

// DimBound returns the bound of the named dimension, or an error.
func (e *Einsum) DimBound(name string) (int, error) {
	for _, d := range e.Dims {
		if d.Name == name {
			return d.Bound, nil
		}
	}
	return 0, fmt.Errorf("tensor: einsum %q has no dimension %q", e.Name, name)
}

// MACs returns the total multiply-accumulate count: the product of all
// dimension bounds.
func (e *Einsum) MACs() int64 {
	n := int64(1)
	for _, d := range e.Dims {
		n *= int64(d.Bound)
	}
	return n
}

// RelevantDims returns the sorted set of dimension names that appear in the
// projection of the named data space. Loops over irrelevant dimensions reuse
// the tensor.
func (e *Einsum) RelevantDims(space string) ([]string, error) {
	for _, s := range e.Spaces {
		if s.Name != space {
			continue
		}
		set := make(map[string]bool)
		for _, ax := range s.Axes {
			for _, c := range ax {
				set[c.Dim] = true
			}
		}
		out := make([]string, 0, len(set))
		for d := range set {
			out = append(out, d)
		}
		sort.Strings(out)
		return out, nil
	}
	return nil, fmt.Errorf("tensor: einsum %q has no data space %q", e.Name, space)
}

// Space returns the named data space.
func (e *Einsum) Space(name string) (DataSpace, error) {
	for _, s := range e.Spaces {
		if s.Name == name {
			return s, nil
		}
	}
	return DataSpace{}, fmt.Errorf("tensor: einsum %q has no data space %q", e.Name, name)
}

// SpaceOfKind returns the first data space with the given role.
func (e *Einsum) SpaceOfKind(k Kind) (DataSpace, error) {
	for _, s := range e.Spaces {
		if s.Kind == k {
			return s, nil
		}
	}
	return DataSpace{}, fmt.Errorf("tensor: einsum %q has no %s data space", e.Name, k)
}

// TileVolume returns the number of distinct tensor elements touched by an
// iteration-space tile with the given per-dimension extents. Dimensions
// missing from tile default to extent 1. For an axis sum(c_i * d_i) over a
// box, the coordinate extent is sum(|c_i| * (t_i - 1)) + 1 (the sliding-
// window halo rule for convolutions).
func (s DataSpace) TileVolume(tile map[string]int) int64 {
	vol := int64(1)
	for _, ax := range s.Axes {
		extent := 1
		for _, c := range ax {
			t := tile[c.Dim]
			if t <= 0 {
				t = 1
			}
			co := c.Coeff
			if co < 0 {
				co = -co
			}
			extent += co * (t - 1)
		}
		vol *= int64(extent)
	}
	return vol
}

// Volume returns the total number of elements of the data space over the
// full iteration space of e.
func (e *Einsum) Volume(space string) (int64, error) {
	s, err := e.Space(space)
	if err != nil {
		return 0, err
	}
	tile := make(map[string]int, len(e.Dims))
	for _, d := range e.Dims {
		tile[d.Name] = d.Bound
	}
	return s.TileVolume(tile), nil
}

// Coord maps an iteration-space point (dimension name → index) to the flat
// coordinate of this data space, using row-major order over its axes with
// the extents implied by full dimension bounds from dims.
func (s DataSpace) Coord(point map[string]int, dims []Dim) int64 {
	bound := make(map[string]int, len(dims))
	for _, d := range dims {
		bound[d.Name] = d.Bound
	}
	flat := int64(0)
	for _, ax := range s.Axes {
		extent := 1
		v := 0
		for _, c := range ax {
			co := c.Coeff
			if co < 0 {
				co = -co
			}
			extent += co * (bound[c.Dim] - 1)
			v += c.Coeff * point[c.Dim]
		}
		flat = flat*int64(extent) + int64(v)
	}
	return flat
}

// String renders the einsum in a compact algebraic form.
func (e *Einsum) String() string {
	var b strings.Builder
	b.WriteString(e.Name)
	b.WriteString("[")
	for i, d := range e.Dims {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%s=%d", d.Name, d.Bound)
	}
	b.WriteString("]")
	return b.String()
}

// Conv2D builds the 7-dimensional convolution einsum used throughout the
// paper's workloads. n is the batch, k output channels, c input channels,
// p×q the output feature map, r×s the filter, stride the spatial stride.
func Conv2D(name string, n, k, c, p, q, r, s, stride int) (*Einsum, error) {
	if stride <= 0 {
		return nil, fmt.Errorf("tensor: Conv2D %q stride %d", name, stride)
	}
	e := &Einsum{
		Name: name,
		Dims: []Dim{
			{Name: "N", Bound: n}, {Name: "K", Bound: k}, {Name: "C", Bound: c},
			{Name: "P", Bound: p}, {Name: "Q", Bound: q},
			{Name: "R", Bound: r}, {Name: "S", Bound: s},
		},
		Spaces: []DataSpace{
			{
				Name: "Inputs", Kind: Input,
				Axes: []Axis{
					{{Dim: "N", Coeff: 1}},
					{{Dim: "C", Coeff: 1}},
					{{Dim: "P", Coeff: stride}, {Dim: "R", Coeff: 1}},
					{{Dim: "Q", Coeff: stride}, {Dim: "S", Coeff: 1}},
				},
			},
			{
				Name: "Weights", Kind: Weight,
				Axes: []Axis{
					{{Dim: "K", Coeff: 1}},
					{{Dim: "C", Coeff: 1}},
					{{Dim: "R", Coeff: 1}},
					{{Dim: "S", Coeff: 1}},
				},
			},
			{
				Name: "Outputs", Kind: Output,
				Axes: []Axis{
					{{Dim: "N", Coeff: 1}},
					{{Dim: "K", Coeff: 1}},
					{{Dim: "P", Coeff: 1}},
					{{Dim: "Q", Coeff: 1}},
				},
			},
		},
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// MatMul builds an M×C×K matrix multiply einsum: Outputs[m,k] +=
// Inputs[m,c] * Weights[c,k]. The reduction dim is named C and the output
// dim K to match Conv2D, so one architecture's mapping preferences apply
// to both workload families.
func MatMul(name string, m, c, k int) (*Einsum, error) {
	e := &Einsum{
		Name: name,
		Dims: []Dim{
			{Name: "M", Bound: m}, {Name: "C", Bound: c}, {Name: "K", Bound: k},
		},
		Spaces: []DataSpace{
			{Name: "Inputs", Kind: Input, Axes: []Axis{{{Dim: "M", Coeff: 1}}, {{Dim: "C", Coeff: 1}}}},
			{Name: "Weights", Kind: Weight, Axes: []Axis{{{Dim: "C", Coeff: 1}}, {{Dim: "K", Coeff: 1}}}},
			{Name: "Outputs", Kind: Output, Axes: []Axis{{{Dim: "M", Coeff: 1}}, {{Dim: "K", Coeff: 1}}}},
		},
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// DepthwiseConv2D builds a depthwise convolution: each channel is filtered
// independently (no K dimension; weights and outputs share C).
func DepthwiseConv2D(name string, n, c, p, q, r, s, stride int) (*Einsum, error) {
	if stride <= 0 {
		return nil, fmt.Errorf("tensor: DepthwiseConv2D %q stride %d", name, stride)
	}
	e := &Einsum{
		Name: name,
		Dims: []Dim{
			{Name: "N", Bound: n}, {Name: "C", Bound: c},
			{Name: "P", Bound: p}, {Name: "Q", Bound: q},
			{Name: "R", Bound: r}, {Name: "S", Bound: s},
		},
		Spaces: []DataSpace{
			{
				Name: "Inputs", Kind: Input,
				Axes: []Axis{
					{{Dim: "N", Coeff: 1}},
					{{Dim: "C", Coeff: 1}},
					{{Dim: "P", Coeff: stride}, {Dim: "R", Coeff: 1}},
					{{Dim: "Q", Coeff: stride}, {Dim: "S", Coeff: 1}},
				},
			},
			{
				Name: "Weights", Kind: Weight,
				Axes: []Axis{
					{{Dim: "C", Coeff: 1}},
					{{Dim: "R", Coeff: 1}},
					{{Dim: "S", Coeff: 1}},
				},
			},
			{
				Name: "Outputs", Kind: Output,
				Axes: []Axis{
					{{Dim: "N", Coeff: 1}},
					{{Dim: "C", Coeff: 1}},
					{{Dim: "P", Coeff: 1}},
					{{Dim: "Q", Coeff: 1}},
				},
			},
		},
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}
