// Package memo is the one bounded memo of the repository: a map whose
// entries are each filled at most once while held, evicted least
// recently used. serve.Cache holds compiled engines and layer contexts in
// one; core.PrepareMemo holds operand stages and column sums in another.
package memo

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrBusy is a lookup's refusal to wait: Get without wait found its
// entry held but still being filled.
var ErrBusy = errors.New("memo: entry is being filled by another goroutine")

// Memo maps keys to values filled on first lookup. It holds at most its
// capacity of entries and evicts the least recently used; an entry
// evicted while it fills still returns its value to the lookups waiting
// on it. Concurrent lookups of one missing key fill it once, the others
// waiting — except a lookup that does not wait, which gets ErrBusy. A
// failed fill is dropped, so a later lookup fills afresh. All methods are
// safe for concurrent use, and a Memo must not be copied.
type Memo[K, V comparable] struct {
	mu        sync.Mutex
	capacity  int // <= 0: unbounded
	items     map[K]*entry[K, V]
	lru       entry[K, V] // ring sentinel: lru.next is the most recent entry
	evictions uint64
}

// entry is one held key.
type entry[K, V comparable] struct {
	key        K
	once       sync.Once
	filled     atomic.Bool // val and err are set
	val        V
	err        error
	prev, next *entry[K, V]
}

// Init bounds an empty m to capacity entries; capacity <= 0 leaves it
// unbounded. A Memo must be initialized once, before use.
func (m *Memo[K, V]) Init(capacity int) {
	m.capacity = capacity
	m.items = make(map[K]*entry[K, V])
	m.lru.prev, m.lru.next = &m.lru, &m.lru
}

// Get returns the value held under key, filling a new entry if none is
// held; hit reports that an entry was held already. The first lookup to
// reach an unfilled entry fills it with its own fill, and the others wait
// for that; unless wait, an entry still being filled is not waited for:
// Get returns ErrBusy and does nothing else. A fill's error is returned
// to every lookup waiting on it, and its entry dropped.
func (m *Memo[K, V]) Get(key K, wait bool, fill func() (V, error)) (val V, hit bool, err error) {
	m.mu.Lock()
	e, hit := m.items[key]
	if hit {
		if !wait && !e.filled.Load() {
			m.mu.Unlock()
			return val, false, ErrBusy
		}
		e.unlink()
		e.pushAfter(&m.lru)
	} else {
		e = &entry[K, V]{key: key}
		m.insertLocked(e)
	}
	m.mu.Unlock()

	e.once.Do(func() {
		e.val, e.err = fill()
		e.filled.Store(true)
	})
	if e.err != nil {
		m.mu.Lock()
		if m.items[key] == e {
			m.removeLocked(e)
		}
		m.mu.Unlock()
	}
	return e.val, hit, e.err
}

// Add holds val under key as the most recent entry, unless an entry is
// held under key already: Add never replaces one, and reports whether it
// added val.
func (m *Memo[K, V]) Add(key K, val V) bool {
	e := &entry[K, V]{key: key, val: val}
	e.once.Do(func() {}) // filled: lookups must never run a fill on it
	e.filled.Store(true)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[key]; ok {
		return false
	}
	m.insertLocked(e)
	return true
}

// Remove drops the entry held under key if it is filled with val.
func (m *Memo[K, V]) Remove(key K, val V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.items[key]; ok && e.filled.Load() && e.err == nil && e.val == val {
		m.removeLocked(e)
	}
}

// Len returns the number of entries held.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// Evictions returns how many entries the capacity bound has evicted.
func (m *Memo[K, V]) Evictions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// Keys returns the keys held, most recently used first.
func (m *Memo[K, V]) Keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]K, 0, len(m.items))
	for e := m.lru.next; e != &m.lru; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// insertLocked holds e as the most recent entry and applies the bound.
func (m *Memo[K, V]) insertLocked(e *entry[K, V]) {
	m.items[e.key] = e
	e.pushAfter(&m.lru)
	for m.capacity > 0 && len(m.items) > m.capacity {
		m.removeLocked(m.lru.prev)
		m.evictions++
	}
}

func (m *Memo[K, V]) removeLocked(e *entry[K, V]) {
	e.unlink()
	delete(m.items, e.key)
}

func (e *entry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (e *entry[K, V]) pushAfter(at *entry[K, V]) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}
