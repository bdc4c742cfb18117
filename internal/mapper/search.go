package mapper

import (
	"context"
	"errors"
	"sync"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// Result pairs a mapping with its evaluated cost.
type Result struct {
	Mapping *mapping.Mapping
	Cost    float64
}

// CostFunc prices one candidate mapping for a search. The mapping is
// borrowed from the search's pooled memory: it is valid only for the
// call, because the search draws the next candidate into the same memory
// and, once it returns, hands that memory to the next search. A CostFunc
// must not keep its argument or anything that points into it; one that
// needs a candidate later must copy it. The search itself copies each new
// best into a buffer it reuses and copies only the winner out, once, into
// memory the caller owns. (Sample and Greedy return copies, and the worker
// pool prices copies in buffers it recycles.)
type CostFunc func(*mapping.Mapping) (float64, error)

// searchPartial accumulates one worker's share of the reduction. Both
// folds are order-independent: the winner is the lexicographic minimum of
// (cost, candidate index) — in candidate order, "strictly lower cost wins,
// earlier candidate keeps ties" — and the reported error is the one with
// the lowest candidate index. Merging partials therefore yields the same
// answer no matter how candidates were interleaved, and memory stays
// constant in the budget instead of O(MaxMappings).
type searchPartial struct {
	// keep, when set, receives a copy of each new best, so that best
	// points into it; otherwise each new best is copied to fresh memory.
	keep      *mapping.Mapping
	best      *mapping.Mapping
	bestCost  float64
	bestIdx   int
	firstErr  error
	errIdx    int
	evaluated int
}

// observe folds candidate i into the partial. m is borrowed: a new best
// is copied, into keep when it is set.
func (p *searchPartial) observe(i int, m *mapping.Mapping, cost float64, err error) {
	if err != nil {
		if p.firstErr == nil || i < p.errIdx {
			p.firstErr, p.errIdx = err, i
		}
		return
	}
	p.evaluated++
	if p.best == nil || cost < p.bestCost || (cost == p.bestCost && i < p.bestIdx) {
		if p.keep != nil {
			copyInto(p.keep, m)
			p.best = p.keep
		} else {
			p.best = (&copier{batch: 1}).copy(m)
		}
		p.bestCost, p.bestIdx = cost, i
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

// Search generates candidates and returns the one minimizing the cost
// function, along with the number of mappings evaluated. plan is the
// compiled count analysis of (levels, e); the search validates the greedy
// mapping and every sampled candidate with it. The candidate sequence is
// Sample's, and the winner is the minimum-cost candidate with ties broken
// by the lowest candidate index. Candidates whose evaluation fails are
// skipped; if every candidate fails, the first one's error (in candidate
// order) is returned.
//
// Each worker owns a mapping.Scratch, and newCost is called once per
// worker with it. Before each call of the CostFunc newCost returned, the
// search has validated the candidate and laid it out in that Scratch with
// plan.Load, so a cost function that analyzes counts reads them with
// plan.AnalyzeLoaded instead of checking the candidate again. Each worker
// prices candidates only with the CostFunc it got, so a cost function may
// keep per-worker scratch state; state shared between the CostFuncs must
// be safe for concurrent use. The Scratch is lent for the search: neither
// it nor the CostFunc may be used after Search returns.
//
// With workers <= 1 each candidate is priced inline as the generator
// yields it, on the caller's goroutine: its validation is the Load into
// the Scratch, and it is priced in the generator's own memory, with no
// copy. That path runs in a pooled searchState (sampler tables, dedup
// set, rand source, Scratch and best-so-far buffer), reused across
// searches instead of rebuilt; only the winner is copied out. With more
// workers, the generator validates each candidate, copies it into a
// recycled buffer and streams it into a bounded worker pool, where a
// worker loads and prices it, so evaluation overlaps generation; the
// per-worker partial reductions merge after all workers finish. Both
// widths run the same reduction, so the winner, the error and the
// evaluated count do not depend on workers.
//
// Cancellation is checked before every candidate evaluation: a cancelled
// search stops generating, drains promptly, and returns ctx.Err() with
// the partial evaluated count.
func Search(ctx context.Context, plan *mapping.Plan, levels []spec.Level, e *tensor.Einsum, opts Options, workers int, newCost func(*mapping.Scratch) CostFunc) (*Result, int, error) {
	opts.MaxMappings = opts.budget()
	if workers > opts.MaxMappings {
		workers = opts.MaxMappings
	}
	st := getState()
	defer st.release()
	var total searchPartial
	var emit func(int, *mapping.Mapping)
	wait := func() {}
	serial := workers <= 1
	if serial {
		total.keep = &st.best
		cost := newCost(&st.scratch) // sampleSeq loads each candidate into it
		emit = func(i int, m *mapping.Mapping) {
			v, err := cost(m)
			total.observe(i, m, v, err)
		}
	} else {
		emit, wait = startPool(ctx, plan, workers, newCost, &total)
	}
	sampleErr := st.sampleSeq(plan, levels, e, opts, serial, func(i int, m *mapping.Mapping) bool {
		if ctx.Err() != nil {
			return false
		}
		emit(i, m)
		return true
	})
	wait()
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
	best := total.best
	if serial {
		best = (&copier{batch: 1}).copy(best) // out of the pooled buffer
	}
	return &Result{Mapping: best, Cost: total.bestCost}, total.evaluated, nil
}

// startPool starts workers goroutines, each loading candidates into its
// own Scratch and pricing them with the newCost function of that Scratch
// into a partial reduction. emit copies one borrowed candidate into a
// free buffer and hands it to the pool; the worker returns the buffer
// once the candidate is priced. wait, called once generation has ended,
// drains the pool and merges every partial into total.
func startPool(ctx context.Context, plan *mapping.Plan, workers int, newCost func(*mapping.Scratch) CostFunc, total *searchPartial) (emit func(int, *mapping.Mapping), wait func()) {
	type candidate struct {
		i int
		m *mapping.Mapping
	}
	feed := make(chan candidate, workers)
	// At most 2*workers+1 buffers exist: one per feed slot, one per
	// worker and the one emit is filling, since emit allocates only when
	// every other buffer is in flight.
	free := make(chan *mapping.Mapping, 2*workers+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		s := new(mapping.Scratch)
		go func(cost CostFunc) {
			defer wg.Done()
			var local searchPartial
			for c := range feed {
				// The per-candidate cancellation check; after cancellation
				// workers keep draining the feed without evaluating so
				// close(feed) is never stranded.
				if ctx.Err() == nil {
					v, err := 0.0, plan.Load(c.m, s)
					if err == nil {
						v, err = cost(c.m)
					}
					local.observe(c.i, c.m, v, err)
				}
				free <- c.m
			}
			mu.Lock()
			total.merge(&local)
			mu.Unlock()
		}(newCost(s))
	}
	emit = func(i int, m *mapping.Mapping) {
		var buf *mapping.Mapping
		select {
		case buf = <-free:
		default:
			buf = new(mapping.Mapping)
		}
		copyInto(buf, m)
		feed <- candidate{i, buf}
	}
	wait = func() {
		close(feed)
		wg.Wait()
	}
	return emit, wait
}

// copyInto makes dst a copy of m, reusing dst's loop buffers.
func copyInto(dst, m *mapping.Mapping) {
	if len(dst.LevelLoops) != len(m.LevelLoops) {
		dst.LevelLoops = make([][]mapping.Loop, len(m.LevelLoops))
	}
	for i, l := range m.LevelLoops {
		dst.LevelLoops[i] = append(dst.LevelLoops[i][:0], l...)
	}
}
