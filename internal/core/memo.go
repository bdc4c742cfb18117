package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/memo"
)

// columnSumCap is the value a column sum saturates at (columnSumPMF).
const columnSumCap = 256

// PrepareMemo memoizes the two content-addressed stages of a layer
// preparation (PrepareLayerWithPMFs) by the SHA-256 digest of their exact
// inputs, the content addressing the serving cache's keys use too:
//
//   - the operand stage — both operands encoded, sliced, and multiplied
//     into the cell-product PMF — keyed by the resolved input and weight
//     encoding names, InputBits, DACBits, WeightBits and CellBits, and
//     every value and probability bit of both operand PMFs (operandKey);
//   - the column sums, SumNCapped(cell, depth, columnSumCap).Rebin(512),
//     keyed by the cell product's bits (cellKey) and the reduction depth.
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
	entries memo.Memo[memoKey, any] // *operandStage or column-sum *dist.PMF

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
	digest [sha256.Size]byte // operandKey or cellKey
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

// operandKey digests everything the operand stage reads: the resolved
// encoding names, the four operand and slice precisions, and both operand
// PMFs.
func operandKey(a *Arch, inEnc, wEnc string, inPMF, wPMF *dist.PMF) [sha256.Size]byte {
	b := make([]byte, 0, 8*8+len(inEnc)+len(wEnc)+16*(inPMF.Len()+wPMF.Len()))
	for _, name := range []string{inEnc, wEnc} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(name)))
		b = append(b, name...)
	}
	for _, bits := range []int{a.InputBits, a.DACBits, a.WeightBits, a.CellBits} {
		b = binary.LittleEndian.AppendUint64(b, uint64(bits))
	}
	b = appendPMF(b, inPMF)
	return sha256.Sum256(appendPMF(b, wPMF))
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
// is held (see get for wait).
func (m *PrepareMemo) operands(a *Arch, inPMF, wPMF *dist.PMF, wait bool) (*operandStage, error) {
	inEnc := a.ResolveInputEncoding(inPMF.Min() < 0)
	wEnc := a.ResolveWeightEncoding()
	k := memoKey{kind: operandEntry, digest: operandKey(a, inEnc, wEnc, inPMF, wPMF)}
	v, err := m.get(k, wait, func() (any, error) {
		return prepareOperands(a, inEnc, wEnc, inPMF, wPMF)
	})
	if err != nil {
		return nil, err
	}
	return v.(*operandStage), nil
}

// sum returns SumNCapped(ops.cell, depth, columnSumCap).Rebin(512),
// computing it at most once while its entry is held (see get for wait).
func (m *PrepareMemo) sum(ops *operandStage, depth int64, wait bool) (*dist.PMF, error) {
	k := memoKey{kind: sumEntry, digest: ops.cellKey, depth: depth}
	v, err := m.get(k, wait, func() (any, error) { return columnSum(ops.cell, depth) })
	if err != nil {
		return nil, err
	}
	return v.(*dist.PMF), nil
}

// columnSum computes a column-sum entry: SumNCapped(cell, depth,
// columnSumCap).Rebin(512), at exact length.
func columnSum(cell *dist.PMF, depth int64) (*dist.PMF, error) {
	s, err := dist.SumNCapped(cell, int(depth), columnSumCap)
	if err != nil {
		return nil, err
	}
	return s.Rebin(512).Compact(), nil
}
