package serve

import "repro/internal/serve/api"

// tokenBudget is the server's global evaluation-concurrency budget: a
// non-blocking counting semaphore shared between the request-level worker
// pool and the intra-request mapping-search fan-out. Every evaluation —
// a sweep item or a direct EvaluateCtx call — holds one token for its
// duration; a request's parallel search borrows only what is left for
// its extra workers. The result is a single cap on actively-evaluating
// goroutines: when the request pool is saturated, tryAcquire returns 0
// and per-layer searches run serially; when the server handles one lone
// request, the whole budget is available for its fan-out. Acquisition
// never blocks (a caller finding the budget empty still evaluates, it
// just cannot fan out), so the budget shapes work but never deadlocks or
// rejects it.
type tokenBudget struct {
	tokens chan struct{}
}

func newTokenBudget(n int) *tokenBudget {
	if n < 1 {
		n = 1
	}
	b := &tokenBudget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// tryAcquire takes up to n tokens without blocking and returns how many
// it got (possibly 0).
func (b *tokenBudget) tryAcquire(n int) int {
	got := 0
	for got < n {
		select {
		case <-b.tokens:
			got++
		default:
			return got
		}
	}
	return got
}

// release returns n previously acquired tokens.
func (b *tokenBudget) release(n int) {
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
}

// capacity is the budget's total token count.
func (b *tokenBudget) capacity() int { return cap(b.tokens) }

// available is the instantaneous free token count (racy by nature; used
// for stats only).
func (b *tokenBudget) available() int { return len(b.tokens) }

// BudgetStats snapshots the shared concurrency budget for /healthz (the
// wire type api.BudgetStats).
type BudgetStats = api.BudgetStats
