package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/memo"
	"repro/internal/workload"
)

// columnSumCap is the value a column sum saturates at (newColumnSum).
const columnSumCap = 256

// PrepareMemo memoizes the two stages of a layer preparation that depend
// only on the layer's operand values, by the SHA-256 digest of what they
// read:
//
//   - the operand stage — both operands encoded, sliced, and multiplied
//     into the cell-product PMF. Each entry has one of two keys, after
//     where its operand PMFs come from. A layer whose PMFs are
//     synthesized from its statistics (PrepareLayer, TryPrepareLayer) is
//     keyed by those statistics (statsKey): every field of its ActStats
//     and WeightStats, the unresolved input and weight encoding names,
//     InputBits, DACBits, WeightBits and CellBits; the PMFs are then
//     synthesized only when the entry is filled. Caller-supplied PMFs
//     (PrepareLayerWithPMFs) are keyed by content (operandKey): the
//     resolved encoding names, the same four precisions, and every value
//     and probability bit of both PMFs. The two keys' digested bytes
//     never coincide, so neither finds the other's entries;
//   - the column sums, SumNCapped(cell, depth, columnSumCap).Rebin(512),
//     keyed by the cell product's bits (cellKey) and the reduction depth,
//     whichever key found the cell product. A sum entry also holds the
//     mean energies drawn from it: each output circuit that reads the sum
//     (circuits.OutputKey) is priced on it once per entry, and every
//     later preparation reaching that circuit and sum reads the price.
//
// Two preparations that agree on a key — the same macro wrapped in
// different systems, or layers with equal operand statistics — compute it
// once and share the immutable result; column sums are stored at exact
// length.
//
// A PrepareMemo holds at most its capacity of entries, both kinds
// counted together in one memo.Memo, which evicts the least recently
// used; a recomputed entry is bit-identical to the evicted one.
// Concurrent lookups of one missing entry fill it once, the others
// waiting for it — except a lookup that does not wait (TryPrepareLayer),
// which finds the entry busy and counts as no lookup; failures are not
// memoized. All methods are safe for concurrent use.
type PrepareMemo struct {
	entries memo.Memo[memoKey, any] // *operandStage or *columnSum

	mu     sync.Mutex // guards counts
	counts [memoKinds]MemoCounts
}

// MemoCounts counts a PrepareMemo's lookups of one entry kind, and the
// fills among them: lookups that found no entry and computed it.
type MemoCounts struct {
	Lookups, Fills uint64
}

// memoKind tells a PrepareMemo's two entry kinds apart.
type memoKind uint8

const (
	operandEntry memoKind = iota
	sumEntry
	memoKinds // the number of kinds
)

type memoKey struct {
	kind   memoKind
	digest [sha256.Size]byte // statsKey, operandKey or cellKey
	depth  int64             // column sums only
}

// NewPrepareMemo returns a memo bounded to capacity entries; capacity <= 0
// leaves it unbounded.
func NewPrepareMemo(capacity int) *PrepareMemo {
	m := new(PrepareMemo)
	m.entries.Init(capacity)
	return m
}

// Len returns the number of entries held, of both kinds.
func (m *PrepareMemo) Len() int { return m.entries.Len() }

// Stats returns the lookups and fills of operand-stage entries and of
// column-sum entries since the memo was made.
func (m *PrepareMemo) Stats() (operands, sums MemoCounts) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[operandEntry], m.counts[sumEntry]
}

// appendPMF appends p's point count and every value and probability bit
// of its points to b; the count delimits PMFs digested back to back.
func appendPMF(b []byte, p *dist.PMF) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(p.Len()))
	for _, pt := range p.Points() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pt.Value))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pt.Prob))
	}
	return b
}

// cellKey digests every value and probability bit of a PMF.
func cellKey(p *dist.PMF) [sha256.Size]byte {
	return sha256.Sum256(appendPMF(make([]byte, 0, 8+16*p.Len()), p))
}

// appendName appends a length-delimited name to b.
func appendName(b []byte, name string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(name)))
	return append(b, name...)
}

// appendPrecisions appends the four operand and slice precisions the
// operand stage reads.
func appendPrecisions(b []byte, a *Arch) []byte {
	for _, bits := range [...]int{a.InputBits, a.DACBits, a.WeightBits, a.CellBits} {
		b = binary.LittleEndian.AppendUint64(b, uint64(bits))
	}
	return b
}

// operandKey digests everything the operand stage reads: the resolved
// encoding names, the four operand and slice precisions, and both operand
// PMFs.
func operandKey(a *Arch, inEnc, wEnc string, inPMF, wPMF *dist.PMF) [sha256.Size]byte {
	b := make([]byte, 0, 8*8+len(inEnc)+len(wEnc)+16*(inPMF.Len()+wPMF.Len()))
	b = appendPrecisions(appendName(appendName(b, inEnc), wEnc), a)
	b = appendPMF(b, inPMF)
	return sha256.Sum256(appendPMF(b, wPMF))
}

// statsTag opens every statsKey input. An operandKey input opens with the
// length of an encoding name, which is never 2^64-1, so no input of one
// key is an input of the other.
const statsTag = math.MaxUint64

// statsKey digests everything the operand stage of a layer with
// statistics act and wgt reads when its operand PMFs are synthesized
// from them: the unresolved encoding names (the input encoding resolves
// by the synthesized input's sign, and a signed layer whose negative
// mass underflows synthesizes an unsigned PMF), the four operand and
// slice precisions, and every field of act and wgt.
func statsKey(a *Arch, act workload.ActStats, wgt workload.WeightStats) [sha256.Size]byte {
	var buf [256]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], statsTag)
	b = appendPrecisions(appendName(appendName(b, a.InputEncoding), a.WeightEncoding), a)
	var signed uint64
	if act.Signed {
		signed = 1
	}
	b = binary.LittleEndian.AppendUint64(b, signed)
	for _, f := range [...]float64{act.Sparsity, act.Mean, act.Std, act.Corr, wgt.Std} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return sha256.Sum256(b)
}

// get returns k's value, running fill at most once while its entry is
// held, and counts the lookup. Unless wait, an entry another goroutine is
// filling is not waited for: get returns ErrPrepareBusy and counts
// nothing.
func (m *PrepareMemo) get(k memoKey, wait bool, fill func() (any, error)) (any, error) {
	v, hit, err := m.entries.Get(k, wait, fill)
	if err == ErrPrepareBusy {
		return nil, err
	}
	m.mu.Lock()
	m.counts[k.kind].Lookups++
	if !hit {
		m.counts[k.kind].Fills++
	}
	m.mu.Unlock()
	return v, err
}

// operands returns the operand stage of a layer with operand PMFs inPMF
// and wPMF on architecture a, preparing it at most once while its entry
// is held.
func (m *PrepareMemo) operands(a *Arch, inPMF, wPMF *dist.PMF) (*operandStage, error) {
	inEnc := a.ResolveInputEncoding(inPMF.Min() < 0)
	wEnc := a.ResolveWeightEncoding()
	k := memoKey{kind: operandEntry, digest: operandKey(a, inEnc, wEnc, inPMF, wPMF)}
	return stage(m.get(k, true, func() (any, error) {
		return prepareOperands(a, inEnc, wEnc, inPMF, wPMF)
	}))
}

// layerOperands returns the operand stage of layer l on architecture a,
// its operand PMFs synthesized from l's statistics, preparing it at most
// once while its entry is held (see get for wait). Synthesis runs only
// in the fill.
func (m *PrepareMemo) layerOperands(a *Arch, l *workload.Layer, wait bool) (*operandStage, error) {
	k := memoKey{kind: operandEntry, digest: statsKey(a, l.Act, l.Wgt)}
	return stage(m.get(k, wait, func() (any, error) { return synthesizeOperands(a, l) }))
}

// stage returns an operand-stage lookup's result as its type.
func stage(v any, err error) (*operandStage, error) {
	if err != nil {
		return nil, err
	}
	return v.(*operandStage), nil
}

// sum returns the column-sum entry of SumNCapped(ops.cell, depth,
// columnSumCap).Rebin(512), computing the sum at most once while its
// entry is held (see get for wait).
func (m *PrepareMemo) sum(ops *operandStage, depth int64, wait bool) (*columnSum, error) {
	k := memoKey{kind: sumEntry, digest: ops.cellKey, depth: depth}
	v, err := m.get(k, wait, func() (any, error) { return newColumnSum(ops.cell, depth) })
	if err != nil {
		return nil, err
	}
	return v.(*columnSum), nil
}

// columnSum is a column-sum entry: the sum, and the mean energies per
// action of the output circuits that read it, each computed on the
// entry's first request for it and dropped with the entry.
type columnSum struct {
	pmf *dist.PMF

	mu       sync.Mutex // guards energies
	energies map[energyKey]float64
}

// energyKey names one mean energy drawn from a column sum: the output
// circuit's circuits.OutputKey, and the full scale the sum is quantized
// to before the circuit reads it (an ADC's ColumnFullScale, which is
// never 0), or 0 when the circuit reads the sum as it is.
type energyKey struct {
	model any
	scale float64
}

// newColumnSum computes a column-sum entry: SumNCapped(cell, depth,
// columnSumCap).Rebin(512), at exact length, with no energies yet.
func newColumnSum(cell *dist.PMF, depth int64) (*columnSum, error) {
	s, err := dist.SumNCapped(cell, int(depth), columnSumCap)
	if err != nil {
		return nil, err
	}
	return &columnSum{pmf: s.Rebin(512).Compact()}, nil
}

// meanEnergy returns the energy held under k, computing it with price
// from the sum if the entry holds none; an error is returned and not
// held. The lock is not held while price runs: requests racing for one
// missing energy may each compute it, and all get the first one held.
func (c *columnSum) meanEnergy(k energyKey, price func(sum *dist.PMF) (float64, error)) (float64, error) {
	c.mu.Lock()
	e, ok := c.energies[k]
	c.mu.Unlock()
	if ok {
		return e, nil
	}
	e, err := price(c.pmf)
	if err != nil {
		return 0, err
	}
	if pricedHook != nil {
		pricedHook()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if held, ok := c.energies[k]; ok {
		return held, nil
	}
	if c.energies == nil {
		c.energies = make(map[energyKey]float64)
	}
	c.energies[k] = e
	return e, nil
}

// pricedHook, when set, is called for each mean energy a column-sum
// entry computes. Only tests set it (export_test.go).
var pricedHook func()
