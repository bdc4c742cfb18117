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

// CostFunc prices one candidate of a search: the mapping the search has
// validated and laid out in the Scratch with the search's Plan (Load or
// LoadIndexed), so a cost function that needs the counts reads them with
// Plan.AnalyzeLoaded and one that needs the mapping itself gets it with
// Plan.WriteLoaded. The Scratch is lent for the call only: the search
// loads the next candidate into it and, once it returns, hands it to the
// next search, so a CostFunc must not keep it or anything that points
// into it. On a worker pool (workers > 1) the CostFunc is called from
// several goroutines at once, each with its own Scratch, so any state it
// shares between calls must be safe for concurrent use.
type CostFunc func(*mapping.Scratch) (float64, error)

// searchPartial accumulates one worker's share of the reduction. Both
// folds are order-independent: the winner is the lexicographic minimum of
// (cost, candidate index) — in candidate order, "strictly lower cost wins,
// earlier candidate keeps ties" — and the reported error is the one with
// the lowest candidate index. Merging partials therefore yields the same
// answer no matter how candidates were interleaved, and memory stays
// constant in the budget instead of O(MaxMappings).
type searchPartial struct {
	best      *mapping.Mapping
	bestCost  float64
	bestIdx   int
	firstErr  error
	errIdx    int
	evaluated int
}

// observe folds candidate i's outcome into the partial and reports
// whether the candidate is the new best, in which case the caller points
// best at a copy of it.
func (p *searchPartial) observe(i int, cost float64, err error) bool {
	if err != nil {
		if p.firstErr == nil || i < p.errIdx {
			p.firstErr, p.errIdx = err, i
		}
		return false
	}
	p.evaluated++
	if p.best == nil || cost < p.bestCost || (cost == p.bestCost && i < p.bestIdx) {
		p.bestCost, p.bestIdx = cost, i
		return true
	}
	return false
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
// With workers <= 1 (the serial path) the candidates never leave index
// space: the sampler draws each one as (dim index, factor) loops, which
// plan.LoadIndexed checks and lays out in the search's Scratch, and cost
// prices that Scratch inline, on the caller's goroutine. Dim names are
// written only for a new best, which plan.WriteLoaded copies out of the
// Scratch into a reused buffer; the winner is copied out once, into
// memory the caller owns. The path runs in a pooled searchState (sampler
// tables, dedup set, rand source, Scratch and best-so-far buffer), reused
// across searches instead of rebuilt. With more workers, the generator
// validates each candidate with the same check (plan.ValidateIndexed),
// writes it with its dim names into a recycled buffer and streams it into
// a bounded worker pool, where a worker loads it into its own Scratch
// (plan.Load) and prices it, so evaluation overlaps generation; the
// per-worker partial reductions merge after all workers finish. Both
// widths run the same reduction, so the winner, the error and the
// evaluated count do not depend on workers.
//
// Cancellation is checked before every candidate evaluation: a cancelled
// search stops generating, drains promptly, and returns ctx.Err() with
// the partial evaluated count.
func Search(ctx context.Context, plan *mapping.Plan, levels []spec.Level, e *tensor.Einsum, opts Options, workers int, cost CostFunc) (*Result, int, error) {
	opts.MaxMappings = opts.budget()
	if workers > opts.MaxMappings {
		workers = opts.MaxMappings
	}
	st := getState()
	defer st.release()
	var total searchPartial
	var emit func(int)
	wait := func() {}
	serial := workers <= 1
	if serial {
		emit = func(i int) {
			v, err := cost(&st.scratch) // sampleSeq loaded candidate i into it
			if total.observe(i, v, err) {
				plan.WriteLoaded(&st.scratch, &st.best)
				total.best = &st.best
			}
		}
	} else {
		send, drain := startPool(ctx, plan, workers, cost, &total)
		emit = func(i int) { send(i, st.smp.named()) }
		wait = drain
	}
	sampleErr := st.sampleSeq(plan, levels, e, opts, serial, func(i int) bool {
		if ctx.Err() != nil {
			return false
		}
		emit(i)
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
// own Scratch and pricing them with cost into a partial reduction. emit
// copies one borrowed candidate into a free buffer and hands it to the
// pool; the worker returns the buffer once the candidate is priced.
// wait, called once generation has ended, drains the pool and merges
// every partial into total.
func startPool(ctx context.Context, plan *mapping.Plan, workers int, cost CostFunc, total *searchPartial) (emit func(int, *mapping.Mapping), wait func()) {
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
		go func() {
			defer wg.Done()
			s := new(mapping.Scratch)
			var local searchPartial
			for c := range feed {
				// The per-candidate cancellation check; after cancellation
				// workers keep draining the feed without evaluating so
				// close(feed) is never stranded.
				if ctx.Err() == nil {
					v, err := 0.0, plan.Load(c.m, s)
					if err == nil {
						v, err = cost(s)
					}
					if local.observe(c.i, v, err) {
						local.best = (&copier{batch: 1}).copy(c.m)
					}
				}
				free <- c.m
			}
			mu.Lock()
			total.merge(&local)
			mu.Unlock()
		}()
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
