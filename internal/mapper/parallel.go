package mapper

import (
	"context"
	"errors"
	"sync"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// SearchParallel is Search with candidate cost evaluations fanned across a
// bounded pool of workers. It returns exactly what the serial Search
// returns — the same winner (minimum cost, ties broken by the lowest
// candidate index), the same first evaluation error, and the same
// evaluated count — so callers can switch between the two freely.
// newCost is called once per worker, and each worker prices candidates
// only with the CostFunc it got, so a cost function may keep per-worker
// scratch state; state shared between the CostFuncs must be safe for
// concurrent use.
func SearchParallel(levels []spec.Level, e *tensor.Einsum, opts Options, workers int, newCost func() CostFunc) (*Result, int, error) {
	return SearchParallelCtx(context.Background(), levels, e, opts, workers, newCost)
}

// searchPartial accumulates one worker's share of the reduction. Both
// folds are order-independent: the winner is the lexicographic minimum of
// (cost, candidate index) — which is exactly the serial loop's "strictly
// lower cost wins, earlier candidate keeps ties" — and the reported error
// is the one with the lowest candidate index. Merging partials therefore
// yields the serial answer no matter how candidates were interleaved, and
// memory stays constant in the budget instead of O(MaxMappings).
type searchPartial struct {
	best      *mapping.Mapping
	bestCost  float64
	bestIdx   int
	firstErr  error
	errIdx    int
	evaluated int
}

func (p *searchPartial) observe(i int, m *mapping.Mapping, cost float64, err error) {
	if err != nil {
		if p.firstErr == nil || i < p.errIdx {
			p.firstErr, p.errIdx = err, i
		}
		return
	}
	p.evaluated++
	if p.best == nil || cost < p.bestCost || (cost == p.bestCost && i < p.bestIdx) {
		p.best, p.bestCost, p.bestIdx = m, cost, i
	}
}

func (p *searchPartial) merge(q *searchPartial) {
	if q.firstErr != nil {
		if p.firstErr == nil || q.errIdx < p.errIdx {
			p.firstErr, p.errIdx = q.firstErr, q.errIdx
		}
	}
	p.evaluated += q.evaluated
	if q.best != nil {
		if p.best == nil || q.bestCost < p.bestCost || (q.bestCost == p.bestCost && q.bestIdx < p.bestIdx) {
			p.best, p.bestCost, p.bestIdx = q.best, q.bestCost, q.bestIdx
		}
	}
}

// SearchParallelCtx is SearchParallel under a context. Candidate
// generation streams from the sampler into the worker pool, so evaluation
// overlaps generation instead of waiting for the whole sample; the
// candidate sequence is nevertheless identical to Sample's, and the
// winner is a deterministic (cost, candidate index) reduction merged
// after all workers finish. Cancellation is checked before every
// candidate evaluation, exactly like the serial path: a cancelled search
// stops feeding the pool, drains promptly, and returns ctx.Err() with the
// partial evaluated count. workers <= 1 falls through to SearchCtx with
// a single newCost() function.
func SearchParallelCtx(ctx context.Context, levels []spec.Level, e *tensor.Einsum, opts Options, workers int, newCost func() CostFunc) (*Result, int, error) {
	if workers <= 1 {
		return SearchCtx(ctx, levels, e, opts, newCost())
	}
	if opts.MaxMappings <= 0 {
		opts.MaxMappings = 100
	}
	if workers > opts.MaxMappings {
		workers = opts.MaxMappings
	}

	type candidate struct {
		i int
		m *mapping.Mapping
	}
	feed := make(chan candidate, workers)
	var mu sync.Mutex
	var total searchPartial
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(cost CostFunc) {
			defer wg.Done()
			var local searchPartial
			for c := range feed {
				// The same per-candidate cancellation check as the serial
				// loop; after cancellation workers keep draining the feed
				// without evaluating so close(feed) is never stranded.
				if ctx.Err() != nil {
					continue
				}
				v, err := cost(c.m)
				local.observe(c.i, c.m, v, err)
			}
			mu.Lock()
			total.merge(&local)
			mu.Unlock()
		}(newCost())
	}

	sampleErr := sampleSeq(levels, e, opts, func(i int, m *mapping.Mapping) bool {
		if ctx.Err() != nil {
			return false
		}
		feed <- candidate{i, m}
		return true
	})
	close(feed)
	wg.Wait()
	if sampleErr != nil {
		// Same contract as the cancellation path below: report how much
		// work was done before the generator failed.
		return nil, total.evaluated, sampleErr
	}
	if err := ctx.Err(); err != nil {
		return nil, total.evaluated, err
	}
	if total.best == nil {
		if total.firstErr != nil {
			return nil, 0, total.firstErr
		}
		return nil, 0, errors.New("mapper: no valid mapping found")
	}
	return &Result{Mapping: total.best, Cost: total.bestCost}, total.evaluated, nil
}
