package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// Kind-specific payload codecs. Engine payloads are JSON: the
// envelope already carries the binary framing (magic, version, checksum),
// the values are plain data, and Go's JSON round-trips float64 values
// bit-exactly (shortest round-trip formatting). Layer contexts — the
// records a boot scan decodes by the hundred — use a binary columnar
// payload (KindLayerContextCol) whose PMF points and energy tables are
// raw float64 columns: a JSON context's cost was almost entirely float
// parsing, and the columnar payload removes it. Decoders validate before
// returning so a decoded value is always usable.

// EncodeEngine serializes a compiled engine as its architecture — the
// plain-data form an engine is deterministically compiled from.
func EncodeEngine(e *core.Engine) ([]byte, error) {
	return json.Marshal(e.Arch())
}

// DecodeEngine rebuilds a compiled engine from an EncodeEngine payload by
// recompiling the architecture (microseconds; the expensive per-layer
// pipeline lives in layer contexts, not engines). A serving warm start
// does not call it: it builds a restored engine from the architecture of
// the first request that needs it, whose fingerprint is the record's key,
// which is cheaper than decoding this JSON.
func DecodeEngine(payload []byte) (*core.Engine, error) {
	var arch core.Arch
	if err := json.Unmarshal(payload, &arch); err != nil {
		return nil, fmt.Errorf("persist: engine payload: %w", err)
	}
	eng, err := core.NewEngine(&arch)
	if err != nil {
		return nil, fmt.Errorf("persist: engine payload: %w", err)
	}
	return eng, nil
}

// The columnar layer-context payload, all integers big-endian like the
// envelope around it:
//
//	u8  colCodecVersion
//	meta (layer, sliced einsum, rails; see appendMeta):
//	    layer: str name, einsum op, i64 repeat,
//	           u8 signed, 4 x f64 act stats, f64 wgt std
//	    einsum sliced
//	    2 x i64 (input rails, weight rails)
//	2 x PMF section (input, weight):
//	    u32 n, n x u64 value bits, n x u64 prob bits
//	u32 level count, per level:
//	    u8 kind count, per kind ascending:
//	        u8 tensor kind, 3 x u64 (read, write, cross) bits
//
// where str is u16 length + bytes and einsum is u8 presence, then
// str name, u16-counted dims (str, i64 bound) and spaces (str, u8 kind,
// u16-counted axes of u16-counted coefs (str dim, i64 coeff)).
//
// Floats are stored as raw IEEE-754 bits, so a round trip is exact by
// construction and re-encoding a decoded payload reproduces it byte for
// byte (slices keep order; the energy kinds are written sorted to keep
// the byte form canonical). The meta is binary too: profiling the boot
// scan showed a JSON meta head costing ~10x the float columns it fronts.

// colCodecVersion versions the columnar payload independently of the
// envelope, so the layout can evolve without renumbering the kind.
const colCodecVersion = 1

// errColumnar tags malformed columnar payloads.
var errColumnar = errors.New("persist: corrupt columnar layer context")

func appendString(buf []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("persist: columnar layer context: %d-byte string", len(s))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

func appendEinsum(buf []byte, e *tensor.Einsum) ([]byte, error) {
	if e == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	var err error
	if buf, err = appendString(buf, e.Name); err != nil {
		return nil, err
	}
	if len(e.Dims) > math.MaxUint16 || len(e.Spaces) > math.MaxUint16 {
		return nil, fmt.Errorf("persist: columnar layer context: oversized einsum %q", e.Name)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Dims)))
	for _, d := range e.Dims {
		if buf, err = appendString(buf, d.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(d.Bound))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Spaces)))
	for _, sp := range e.Spaces {
		if buf, err = appendString(buf, sp.Name); err != nil {
			return nil, err
		}
		if sp.Kind < 0 || int(sp.Kind) > 255 {
			return nil, fmt.Errorf("persist: columnar layer context: tensor kind %d out of byte range", sp.Kind)
		}
		buf = append(buf, byte(sp.Kind))
		if len(sp.Axes) > math.MaxUint16 {
			return nil, fmt.Errorf("persist: columnar layer context: oversized data space %q", sp.Name)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(sp.Axes)))
		for _, ax := range sp.Axes {
			if len(ax) > math.MaxUint16 {
				return nil, fmt.Errorf("persist: columnar layer context: oversized axis in %q", sp.Name)
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(ax)))
			for _, c := range ax {
				if buf, err = appendString(buf, c.Dim); err != nil {
					return nil, err
				}
				buf = binary.BigEndian.AppendUint64(buf, uint64(c.Coeff))
			}
		}
	}
	return buf, nil
}

func appendMeta(buf []byte, d *core.LayerContextData) ([]byte, error) {
	var err error
	if buf, err = appendString(buf, d.Layer.Name); err != nil {
		return nil, err
	}
	if buf, err = appendEinsum(buf, d.Layer.Op); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.Layer.Repeat))
	if d.Layer.Act.Signed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, f := range []float64{
		d.Layer.Act.Sparsity, d.Layer.Act.Mean, d.Layer.Act.Std,
		d.Layer.Act.Corr, d.Layer.Wgt.Std,
	} {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	if buf, err = appendEinsum(buf, d.Sliced); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.InputRails))
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.WeightRails))
	return buf, nil
}

// EncodeLayerContextColumnar serializes a layer context in the binary
// columnar form (KindLayerContextCol).
func EncodeLayerContextColumnar(c *core.LayerContext) ([]byte, error) {
	d := c.Export()
	size := 256 +
		2*(4+16*max(len(d.InputSlicePMF), len(d.WeightSlicePMF))) +
		4 + len(d.Energies)*(1+4*25)
	buf := make([]byte, 0, size)
	buf = append(buf, colCodecVersion)
	var err error
	if buf, err = appendMeta(buf, d); err != nil {
		return nil, err
	}
	buf = appendPMFColumn(buf, d.InputSlicePMF)
	buf = appendPMFColumn(buf, d.WeightSlicePMF)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.Energies)))
	for _, m := range d.Energies {
		if len(m) > 255 {
			return nil, fmt.Errorf("persist: columnar layer context: %d tensor kinds in one level", len(m))
		}
		kinds := make([]int, 0, len(m))
		for t := range m {
			if t < 0 || int(t) > 255 {
				return nil, fmt.Errorf("persist: columnar layer context: tensor kind %d out of byte range", t)
			}
			kinds = append(kinds, int(t))
		}
		sort.Ints(kinds)
		buf = append(buf, byte(len(kinds)))
		for _, t := range kinds {
			ae := m[tensor.Kind(t)]
			buf = append(buf, byte(t))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ae.Read))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ae.Write))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ae.Cross))
		}
	}
	return buf, nil
}

func appendPMFColumn(buf []byte, pts []dist.Point) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pts)))
	for _, p := range pts {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Value))
	}
	for _, p := range pts {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Prob))
	}
	return buf
}

// colReader walks a columnar payload with bounds checking; every read
// fails once `bad` is set, so call sites stay linear.
type colReader struct {
	data []byte
	off  int
	bad  bool
}

func (r *colReader) bytes(n int) []byte {
	if r.bad || n < 0 || r.off+n > len(r.data) {
		r.bad = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *colReader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *colReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *colReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *colReader) i64() int64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func (r *colReader) str() string {
	return string(r.bytes(int(r.u16())))
}

func (r *colReader) einsum() *tensor.Einsum {
	switch r.u8() {
	case 0:
		return nil
	case 1:
	default:
		r.bad = true
		return nil
	}
	e := &tensor.Einsum{Name: r.str()}
	nDims := int(r.u16())
	if r.bad || 2*nDims > len(r.data)-r.off {
		r.bad = true
		return nil
	}
	e.Dims = make([]tensor.Dim, nDims)
	for i := range e.Dims {
		e.Dims[i] = tensor.Dim{Name: r.str(), Bound: int(r.i64())}
	}
	nSpaces := int(r.u16())
	if r.bad || 2*nSpaces > len(r.data)-r.off {
		r.bad = true
		return nil
	}
	e.Spaces = make([]tensor.DataSpace, nSpaces)
	for i := range e.Spaces {
		sp := tensor.DataSpace{Name: r.str(), Kind: tensor.Kind(r.u8())}
		nAxes := int(r.u16())
		if r.bad || 2*nAxes > len(r.data)-r.off {
			r.bad = true
			return nil
		}
		sp.Axes = make([]tensor.Axis, nAxes)
		for a := range sp.Axes {
			nCoefs := int(r.u16())
			if r.bad || 2*nCoefs > len(r.data)-r.off {
				r.bad = true
				return nil
			}
			ax := make(tensor.Axis, nCoefs)
			for c := range ax {
				ax[c] = tensor.Coef{Dim: r.str(), Coeff: int(r.i64())}
			}
			sp.Axes[a] = ax
		}
		e.Spaces[i] = sp
	}
	return e
}

func (r *colReader) f64() float64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

func (r *colReader) pmf() []dist.Point {
	n := int(r.u32())
	if r.bad || n < 0 || r.off+16*n > len(r.data) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	pts := make([]dist.Point, n)
	for i := range pts {
		pts[i].Value = r.f64()
	}
	for i := range pts {
		pts[i].Prob = r.f64()
	}
	return pts
}

// DecodeLayerContextColumnar rebuilds an evaluable layer context from an
// EncodeLayerContextColumnar payload.
func DecodeLayerContextColumnar(payload []byte) (*core.LayerContext, error) {
	r := &colReader{data: payload}
	if v := r.u8(); r.bad || v != colCodecVersion {
		return nil, fmt.Errorf("%w: codec version %d, supported %d", errColumnar, v, colCodecVersion)
	}
	data := &core.LayerContextData{}
	data.Layer.Name = r.str()
	data.Layer.Op = r.einsum()
	data.Layer.Repeat = int(r.i64())
	data.Layer.Act.Signed = r.u8() != 0
	data.Layer.Act.Sparsity = r.f64()
	data.Layer.Act.Mean = r.f64()
	data.Layer.Act.Std = r.f64()
	data.Layer.Act.Corr = r.f64()
	data.Layer.Wgt.Std = r.f64()
	data.Sliced = r.einsum()
	data.InputRails = int(r.i64())
	data.WeightRails = int(r.i64())
	if r.bad {
		return nil, fmt.Errorf("%w: truncated meta", errColumnar)
	}
	data.InputSlicePMF = r.pmf()
	data.WeightSlicePMF = r.pmf()
	nLevels := int(r.u32())
	if r.bad || nLevels < 0 || nLevels > len(payload) {
		return nil, fmt.Errorf("%w: level count", errColumnar)
	}
	data.Energies = make([]map[tensor.Kind]core.AccessEnergy, nLevels)
	for i := range data.Energies {
		nKinds := int(r.u8())
		m := make(map[tensor.Kind]core.AccessEnergy, nKinds)
		for k := 0; k < nKinds; k++ {
			t := tensor.Kind(r.u8())
			m[t] = core.AccessEnergy{Read: r.f64(), Write: r.f64(), Cross: r.f64()}
		}
		data.Energies[i] = m
	}
	if r.bad {
		return nil, fmt.Errorf("%w: truncated energy tables", errColumnar)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errColumnar, len(payload)-r.off)
	}
	// The slice PMFs were decoded into slices of their own: the context
	// takes them without a second copy.
	return core.AdoptLayerContext(data)
}
