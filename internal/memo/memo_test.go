package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// newMemo returns a memo bounded to capacity entries.
func newMemo[K, V comparable](capacity int) *Memo[K, V] {
	m := new(Memo[K, V])
	m.Init(capacity)
	return m
}

// value returns a fill that yields v, counting its runs in calls.
func value(v int, calls *atomic.Int32) func() (int, error) {
	return func() (int, error) {
		if calls != nil {
			calls.Add(1)
		}
		return v, nil
	}
}

// mustGet is a waiting Get that fails the test on error.
func mustGet(t *testing.T, m *Memo[string, int], key string, fill func() (int, error)) (int, bool) {
	t.Helper()
	v, hit, err := m.Get(key, true, fill)
	if err != nil {
		t.Fatal(err)
	}
	return v, hit
}

// held starts, in its own goroutine, a Get of key whose fill blocks
// until release is called; release then returns that Get's results.
func held(t *testing.T, m *Memo[string, int], key string, v int) (release func() (int, bool, error)) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	type result struct {
		v   int
		hit bool
		err error
	}
	done := make(chan result)
	go func() {
		v, hit, err := m.Get(key, true, func() (int, error) {
			close(started)
			<-gate
			return v, nil
		})
		done <- result{v, hit, err}
	}()
	<-started
	return func() (int, bool, error) {
		close(gate)
		r := <-done
		return r.v, r.hit, r.err
	}
}

// TestMemoLRUOrder: a hit makes its entry the most recent, and the
// bound evicts the least recently used, counting each eviction.
func TestMemoLRUOrder(t *testing.T) {
	m := newMemo[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if _, hit := mustGet(t, m, k, value(i, nil)); hit {
			t.Fatalf("%s: hit on an empty memo", k)
		}
	}
	if v, hit := mustGet(t, m, "a", nil); !hit || v != 0 {
		t.Fatalf("a: got %d (hit %v), want the held 0", v, hit)
	}
	mustGet(t, m, "d", value(3, nil))
	if got := fmt.Sprint(m.Keys()); got != "[d a c]" {
		t.Fatalf("keys %s, want [d a c]: b was the least recently used", got)
	}
	if m.Len() != 3 || m.Evictions() != 1 {
		t.Fatalf("len %d, evictions %d, want 3 and 1", m.Len(), m.Evictions())
	}
	mustGet(t, m, "e", value(4, nil))
	if got := fmt.Sprint(m.Keys()); got != "[e d a]" || m.Evictions() != 2 {
		t.Fatalf("keys %s after %d evictions, want [e d a] after 2", got, m.Evictions())
	}
	unbounded := newMemo[string, int](0)
	for i := 0; i < 100; i++ {
		mustGet(t, unbounded, fmt.Sprint(i), value(i, nil))
	}
	if unbounded.Len() != 100 || unbounded.Evictions() != 0 {
		t.Fatalf("unbounded memo: len %d, evictions %d", unbounded.Len(), unbounded.Evictions())
	}
}

// TestMemoEvictedMidFill: an entry evicted while it fills still returns
// its value to the lookup filling it and to a lookup waiting on it, and
// its fill runs once.
func TestMemoEvictedMidFill(t *testing.T) {
	m := newMemo[string, int](2)
	release := held(t, m, "x", 7)
	mustGet(t, m, "z", value(0, nil))

	var calls atomic.Int32
	type result struct {
		v   int
		hit bool
		err error
	}
	waited := make(chan result)
	go func() {
		v, hit, err := m.Get("x", true, value(-1, &calls))
		waited <- result{v, hit, err}
	}()
	// The waiter's hit makes x the most recent entry; once it has, the
	// waiter is past the lookup and waits on x's fill.
	for m.Keys()[0] != "x" {
		select {
		case r := <-waited:
			t.Fatalf("the waiter returned %+v before x was filled", r)
		default:
			runtime.Gosched()
		}
	}
	mustGet(t, m, "y", value(1, nil))
	mustGet(t, m, "w", value(2, nil))
	if got := fmt.Sprint(m.Keys()); got != "[w y]" {
		t.Fatalf("keys %s, want x evicted mid-fill", got)
	}

	if v, hit, err := release(); v != 7 || hit || err != nil {
		t.Fatalf("filling lookup: %d (hit %v, %v), want 7", v, hit, err)
	}
	if r := <-waited; r.v != 7 || !r.hit || r.err != nil {
		t.Fatalf("waiting lookup: %+v, want the evicted entry's 7", r)
	}
	if calls.Load() != 0 {
		t.Fatal("the waiter ran its own fill")
	}
	if got := fmt.Sprint(m.Keys()); got != "[w y]" {
		t.Fatalf("keys %s: the evicted entry came back", got)
	}
}

// TestMemoDropsFailures: a failed fill returns its error, holds no entry,
// and a later lookup fills afresh.
func TestMemoDropsFailures(t *testing.T) {
	m := newMemo[string, int](4)
	boom := errors.New("boom")
	var calls atomic.Int32
	fail := func() (int, error) { calls.Add(1); return 0, boom }
	for i := 0; i < 2; i++ {
		if _, hit, err := m.Get("k", true, fail); !errors.Is(err, boom) || hit {
			t.Fatalf("lookup %d: err %v (hit %v), want boom", i, err, hit)
		}
	}
	if calls.Load() != 2 || m.Len() != 0 {
		t.Fatalf("%d fills, %d entries: a failure was memoized", calls.Load(), m.Len())
	}
	if v, hit := mustGet(t, m, "k", value(5, &calls)); v != 5 || hit || calls.Load() != 3 {
		t.Fatalf("got %d (hit %v) after %d fills, want a fresh fill of 5", v, hit, calls.Load())
	}
	if m.Evictions() != 0 {
		t.Fatal("a dropped failure counted as an eviction")
	}
}

// TestMemoNoWaitBusy: a lookup that does not wait finds an entry still
// filling busy, runs no fill and leaves the order untouched; once the
// entry is filled, it hits.
func TestMemoNoWaitBusy(t *testing.T) {
	m := newMemo[string, int](2)
	release := held(t, m, "x", 3)
	mustGet(t, m, "z", value(0, nil))
	var calls atomic.Int32
	if _, hit, err := m.Get("x", false, value(-1, &calls)); !errors.Is(err, ErrBusy) || hit {
		t.Fatalf("no-wait lookup of a filling entry: err %v (hit %v), want ErrBusy", err, hit)
	}
	if got := fmt.Sprint(m.Keys()); got != "[z x]" || calls.Load() != 0 {
		t.Fatalf("keys %s after %d fills: a busy lookup touched the memo", got, calls.Load())
	}
	if _, _, err := release(); err != nil {
		t.Fatal(err)
	}
	if v, hit, err := m.Get("x", false, value(-1, &calls)); v != 3 || !hit || err != nil {
		t.Fatalf("no-wait lookup of a filled entry: %d (hit %v, %v), want 3", v, hit, err)
	}
	if v, hit, err := m.Get("new", false, value(4, &calls)); v != 4 || hit || err != nil || calls.Load() != 1 {
		t.Fatalf("no-wait lookup of a missing key: %d (hit %v, %v), want its fill", v, hit, err)
	}
}

// TestMemoAddKeepsLive: Add holds a filled value as the most recent
// entry under the bound, and never replaces a held entry, filled or
// still filling.
func TestMemoAddKeepsLive(t *testing.T) {
	m := newMemo[string, int](2)
	if !m.Add("a", 1) || !m.Add("b", 2) {
		t.Fatal("Add refused a missing key")
	}
	if m.Add("a", 9) {
		t.Fatal("Add replaced a held entry")
	}
	if v, hit := mustGet(t, m, "a", nil); v != 1 || !hit {
		t.Fatalf("a = %d (hit %v), want the first value", v, hit)
	}
	if !m.Add("c", 3) || fmt.Sprint(m.Keys()) != "[c a]" || m.Evictions() != 1 {
		t.Fatalf("keys %v after %d evictions, want [c a] after 1", m.Keys(), m.Evictions())
	}

	release := held(t, m, "x", 4)
	if m.Add("x", 9) {
		t.Fatal("Add replaced an entry still filling")
	}
	if v, _, err := release(); v != 4 || err != nil {
		t.Fatalf("filling lookup: %d (%v), want 4", v, err)
	}
	if v, hit := mustGet(t, m, "x", nil); v != 4 || !hit {
		t.Fatalf("x = %d (hit %v), want the filled 4", v, hit)
	}
}

// TestMemoRemoveIfSame: Remove drops an entry only while it holds the
// given value, and never an entry still filling.
func TestMemoRemoveIfSame(t *testing.T) {
	m := newMemo[string, int](4)
	m.Add("a", 1)
	m.Remove("a", 2)
	if m.Len() != 1 {
		t.Fatal("Remove dropped an entry holding another value")
	}
	m.Remove("a", 1)
	if m.Len() != 0 {
		t.Fatal("Remove kept an entry holding the value")
	}
	m.Remove("missing", 0)

	release := held(t, m, "x", 5)
	m.Remove("x", 0) // an unfilled entry's value is the zero value
	if m.Len() != 1 {
		t.Fatal("Remove dropped an entry still filling")
	}
	if _, _, err := release(); err != nil {
		t.Fatal(err)
	}
	if m.Evictions() != 0 {
		t.Fatal("a removal counted as an eviction")
	}
}

// TestMemoConcurrentFill: goroutines looking up overlapping keys fill
// each held key once and always get its own value, at a bound that
// evicts and without one.
func TestMemoConcurrentFill(t *testing.T) {
	for _, capacity := range []int{0, 3} {
		m := newMemo[int, int](capacity)
		var calls [8]atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := (g*7 + i) % len(calls)
					v, _, err := m.Get(k, i%3 != 0, func() (int, error) {
						calls[k].Add(1)
						return 10 * k, nil
					})
					if errors.Is(err, ErrBusy) {
						continue
					}
					if err != nil || v != 10*k {
						t.Errorf("key %d: got %d (%v)", k, v, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if n := m.Len(); capacity > 0 && n > capacity {
			t.Fatalf("capacity %d: memo holds %d entries", capacity, n)
		}
		for k := range calls {
			if n := calls[k].Load(); n == 0 || (capacity == 0 && n != 1) {
				t.Fatalf("capacity %d: key %d filled %d times", capacity, k, n)
			}
		}
	}
}
