package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
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
// A memo holds at most its capacity of entries, both kinds counted
// together, and evicts the least recently used; a recomputed entry is
// bit-identical to the evicted one. Concurrent lookups of one missing
// entry fill it once, the others waiting for it — except a lookup that
// does not wait (TryPrepareLayer), which finds the entry busy and counts
// as no lookup; failures are not memoized. All methods are safe for
// concurrent use.
type PrepareMemo struct {
	mu       sync.Mutex
	capacity int // <= 0: unbounded
	items    map[memoKey]*memoEntry
	lru      memoEntry // ring sentinel: lru.next is the most recent entry
	counts   [memoKinds]MemoCounts
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

// memoEntry holds one filled value: ops for an operand entry, sum for a
// column-sum entry.
type memoEntry struct {
	key        memoKey
	once       sync.Once
	filled     atomic.Bool // fill has returned
	ops        *operandStage
	sum        *dist.PMF
	err        error
	prev, next *memoEntry
}

// NewPrepareMemo returns a memo bounded to capacity entries; capacity <= 0
// leaves it unbounded.
func NewPrepareMemo(capacity int) *PrepareMemo {
	m := &PrepareMemo{capacity: capacity, items: make(map[memoKey]*memoEntry)}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// Len returns the number of entries held, of both kinds.
func (m *PrepareMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

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

// get returns k's entry, running fill on it at most once while the entry
// is held. A failed fill's entry is dropped, so a later lookup retries.
// Unless wait, an entry another goroutine is filling is not waited for:
// get returns ErrPrepareBusy.
func (m *PrepareMemo) get(k memoKey, wait bool, fill func(*memoEntry) error) (*memoEntry, error) {
	m.mu.Lock()
	e, ok := m.items[k]
	if ok && !wait && !e.filled.Load() {
		m.mu.Unlock()
		return nil, ErrPrepareBusy
	}
	m.counts[k.kind].Lookups++
	if ok {
		e.unlink()
	} else {
		m.counts[k.kind].Fills++
		e = &memoEntry{key: k}
		m.items[k] = e
		for m.capacity > 0 && len(m.items) > m.capacity {
			victim := m.lru.prev
			victim.unlink()
			delete(m.items, victim.key)
		}
	}
	e.pushAfter(&m.lru)
	m.mu.Unlock()

	e.once.Do(func() {
		e.err = fill(e)
		e.filled.Store(true)
	})
	if e.err != nil {
		m.mu.Lock()
		if m.items[k] == e {
			e.unlink()
			delete(m.items, k)
		}
		m.mu.Unlock()
	}
	return e, e.err
}

// operands returns the operand stage of a layer with operand PMFs inPMF
// and wPMF on architecture a, preparing it at most once while its entry
// is held (see get for wait).
func (m *PrepareMemo) operands(a *Arch, inPMF, wPMF *dist.PMF, wait bool) (*operandStage, error) {
	inEnc := a.ResolveInputEncoding(inPMF.Min() < 0)
	wEnc := a.ResolveWeightEncoding()
	k := memoKey{kind: operandEntry, digest: operandKey(a, inEnc, wEnc, inPMF, wPMF)}
	e, err := m.get(k, wait, func(e *memoEntry) (err error) {
		e.ops, err = prepareOperands(a, inEnc, wEnc, inPMF, wPMF)
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.ops, nil
}

// sum returns SumNCapped(ops.cell, depth, columnSumCap).Rebin(512),
// computing it at most once while its entry is held (see get for wait).
func (m *PrepareMemo) sum(ops *operandStage, depth int64, wait bool) (*dist.PMF, error) {
	k := memoKey{kind: sumEntry, digest: ops.cellKey, depth: depth}
	e, err := m.get(k, wait, func(e *memoEntry) (err error) {
		e.sum, err = columnSum(ops.cell, depth)
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.sum, nil
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

func (e *memoEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (e *memoEntry) pushAfter(at *memoEntry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}
