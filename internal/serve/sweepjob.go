package serve

import (
	"context"
	"encoding/json"
	"errors"

	"repro/internal/serve/jobs"
)

// sweepRun is the state of one sweep job: which grid items are finished
// and their results. WAL replay after a restart seeds it from on-disk
// checkpoints (restore) before the job is submitted, so the replayed run
// evaluates only the unfinished items. A job is dispatched at most once
// per process, so every item finished at dispatch time is a restored
// one.
type sweepRun struct {
	srv  *Server
	id   string
	reqs []Request
	opts SweepJobOptions
	// ckpt: persist each item completion as a checkpoint record so a
	// crash-replay also skips finished items.
	ckpt bool

	done    []bool
	results []*Result
}

func (s *Server) newSweepRun(id string, reqs []Request, opts SweepJobOptions, ckpt bool) *sweepRun {
	return &sweepRun{
		srv:     s,
		id:      id,
		reqs:    reqs,
		opts:    opts,
		ckpt:    ckpt,
		done:    make([]bool, len(reqs)),
		results: make([]*Result, len(reqs)),
	}
}

// restore seeds one finished item from an on-disk checkpoint (boot-time
// WAL replay, before the job is submitted). Out-of-range indices are
// ignored — a stale checkpoint must not panic the boot scan.
func (r *sweepRun) restore(i int, res *Result) {
	if i < 0 || i >= len(r.reqs) || res == nil {
		return
	}
	r.done[i] = true
	r.results[i] = res
}

// resultErr converts a per-item failure string back into the error the
// progress stream expects.
func resultErr(res *Result) error {
	if res != nil && res.Err != "" {
		return errors.New(res.Err)
	}
	return nil
}

// fn builds the job body. It first reports the items restored from
// checkpoints, then fans out only the unfinished remainder.
func (r *sweepRun) fn() jobs.Fn {
	return func(ctx context.Context, report jobs.Report) (any, error) {
		if r.opts.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
			defer cancel()
		}
		var pending []int
		for i := range r.reqs {
			if r.done[i] {
				report(i, r.results[i], resultErr(r.results[i]))
			} else {
				pending = append(pending, i)
			}
		}
		if len(pending) > 0 {
			sub := make([]Request, len(pending))
			for k, i := range pending {
				sub[k] = r.reqs[i]
			}
			// SweepCtx calls onDone on this goroutine, so the writes
			// below need no lock.
			_, err := r.srv.SweepCtx(ctx, sub, r.opts.Workers, func(k int, res *Result) {
				i := pending[k]
				r.done[i] = true
				r.results[i] = res
				report(i, res, resultErr(res))
				if r.ckpt {
					r.srv.writeCheckpoint(r.id, i, res)
				}
			})
			if err != nil {
				return nil, err
			}
		}
		return SweepTable(r.results).String(), nil
	}
}

// checkpointPayload serializes one finished item for its checkpoint
// record (the JSON api.EvalResult).
func checkpointPayload(res *Result) ([]byte, error) { return json.Marshal(res) }

// decodeCheckpointPayload is the inverse, used by boot-time WAL replay.
func decodeCheckpointPayload(data []byte) (*Result, error) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
