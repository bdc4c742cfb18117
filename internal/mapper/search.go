package mapper

import (
	"context"
	"errors"
	"math"

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
// validated and laid out in the Scratch with its Plan's LoadIndexed, so a
// cost function that needs the counts reads them with Plan.AnalyzeLoaded
// and one that needs the mapping itself gets it with Plan.WriteLoaded.
// The Scratch is lent for the call only: the search loads the next
// candidate into it and, once it returns, hands it to the next search, so
// a CostFunc must not keep it or anything that points into it.
//
// bound is a cost the candidate must beat to matter: the lowest cost the
// caller has seen so far, or +Inf for the first candidate. A CostFunc
// returns either the candidate's exact cost or, once it knows the exact
// cost exceeds bound, any v with bound < v <= the exact cost, so that it
// may stop pricing a candidate that cannot win. Such a candidate neither
// wins nor ties (the earlier candidate keeps a tie), so the search's
// winner, its cost and the evaluated count are those of exact pricing;
// it still counts as evaluated. Ignoring bound is always correct.
type CostFunc func(s *mapping.Scratch, bound float64) (float64, error)

// reduction is a search's running fold over the candidates it has
// priced, in candidate order: a strictly lower cost wins, so the earlier
// candidate keeps ties, and the first failure's error is kept. Its memory
// stays constant in the budget instead of O(MaxMappings).
type reduction struct {
	best      *mapping.Mapping
	bestCost  float64
	firstErr  error
	evaluated int
}

// observe folds the next candidate's outcome into r and reports whether
// the candidate is the new best, in which case the caller points best at
// a copy of it.
func (r *reduction) observe(cost float64, err error) bool {
	if err != nil {
		if r.firstErr == nil {
			r.firstErr = err
		}
		return false
	}
	r.evaluated++
	if r.best == nil || cost < r.bestCost {
		r.bestCost = cost
		return true
	}
	return false
}

// bound is the cost a candidate must beat to become the best: the best
// cost so far, +Inf before there is one.
func (r *reduction) bound() float64 {
	if r.best == nil {
		return math.Inf(1)
	}
	return r.bestCost
}

// Search generates candidates and returns the one minimizing the cost
// function, along with the number of mappings evaluated. plan is the
// compiled count analysis of (levels, e); the search validates the greedy
// mapping and every sampled candidate with it. The candidate sequence is
// Sample's, and the winner is the minimum-cost candidate with ties broken
// by the lowest candidate index. Candidates whose evaluation fails are
// skipped; if every candidate fails, the first one's error (in candidate
// order) is returned. Each candidate is priced under a bound, the best
// cost seen so far (see CostFunc), which lets cost stop early on a
// candidate that cannot win without changing the answer.
//
// The candidates never leave index space: the sampler draws each one as
// (dim index, factor) loops, which plan.LoadIndexed checks and lays out
// in the search's Scratch, and cost prices that Scratch inline, on the
// caller's goroutine. Dim names are written only for a new best, which
// plan.WriteLoaded copies out of the Scratch into a reused buffer; the
// winner is copied out once, into memory the caller owns. The search
// runs in a pooled searchState (sampler tables, dedup set, rand source,
// Scratch and best-so-far buffer), reused across searches instead of
// rebuilt.
//
// Cancellation is checked before every candidate evaluation: a cancelled
// search stops generating and returns ctx.Err() with the partial
// evaluated count.
func Search(ctx context.Context, plan *mapping.Plan, levels []spec.Level, e *tensor.Einsum, opts Options, cost CostFunc) (*Result, int, error) {
	st := getState()
	defer st.release()
	var total reduction
	sampleErr := st.sampleSeq(plan, levels, e, opts, true, func(int) bool {
		if ctx.Err() != nil {
			return false
		}
		v, err := cost(&st.scratch, total.bound()) // sampleSeq loaded the candidate into it
		if total.observe(v, err) {
			plan.WriteLoaded(&st.scratch, &st.best)
			total.best = &st.best
		}
		return true
	})
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
	best := (&copier{batch: 1}).copy(total.best) // out of the pooled buffer
	return &Result{Mapping: best, Cost: total.bestCost}, total.evaluated, nil
}
