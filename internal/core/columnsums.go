package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/dist"
)

// columnSumCap is the value a column sum saturates at (columnSumPMF).
const columnSumCap = 256

// ColumnSums memoizes column-sum PMFs by content: the exact value and
// probability bits of the cell-product PMF (as their SHA-256 digest, the
// content addressing the serving cache's keys use too), the reduction
// depth and the cap. Two layer preparations whose cell products and
// depths agree — the same macro wrapped in different systems, or layers
// with equal operand statistics — sum once and share the immutable,
// exact-length result.
//
// A memo holds at most its capacity of (cell product, depth) entries and
// evicts the least recently used; a recomputed entry is bit-identical to
// the evicted one. Concurrent lookups of one missing entry sum it once.
// All methods are safe for concurrent use.
type ColumnSums struct {
	mu       sync.Mutex
	capacity int // <= 0: unbounded
	items    map[sumKey]*sumEntry
	lru      sumEntry // ring sentinel: lru.next is the most recent entry
}

type sumKey struct {
	cell    [sha256.Size]byte // cellKey of the cell-product PMF
	depth   int64
	ceiling float64
}

type sumEntry struct {
	key        sumKey
	once       sync.Once
	sum        *dist.PMF
	err        error
	prev, next *sumEntry
}

// NewColumnSums returns a memo bounded to capacity entries; capacity <= 0
// leaves it unbounded.
func NewColumnSums(capacity int) *ColumnSums {
	m := &ColumnSums{capacity: capacity, items: make(map[sumKey]*sumEntry)}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// Len returns the number of entries held.
func (m *ColumnSums) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// cellKey digests every value and probability bit of a PMF.
func cellKey(p *dist.PMF) [sha256.Size]byte {
	h := sha256.New()
	var buf [16]byte
	for _, pt := range p.Points() {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(pt.Value))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(pt.Prob))
		h.Write(buf[:])
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// sum returns SumNCapped(cell, depth, columnSumCap).Rebin(512), computing
// it at most once while its entry is held. key is cellKey(cell).
func (m *ColumnSums) sum(key [sha256.Size]byte, cell *dist.PMF, depth int64) (*dist.PMF, error) {
	k := sumKey{cell: key, depth: depth, ceiling: columnSumCap}
	m.mu.Lock()
	e, ok := m.items[k]
	if ok {
		e.unlink()
	} else {
		e = &sumEntry{key: k}
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
		e.sum, e.err = dist.SumNCapped(cell, int(depth), columnSumCap)
		if e.err == nil {
			e.sum = e.sum.Rebin(512).Compact()
		}
	})
	if e.err != nil {
		// Failures are not memoized: drop the entry if it is still held.
		m.mu.Lock()
		if m.items[k] == e {
			e.unlink()
			delete(m.items, k)
		}
		m.mu.Unlock()
	}
	return e.sum, e.err
}

func (e *sumEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (e *sumEntry) pushAfter(at *sumEntry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}
