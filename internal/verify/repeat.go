package verify

import (
	"sync/atomic"

	"repro/internal/exec"
)

// capFactor is how far past its default count a join with a recall target
// may repeat: the one cap of the stop rule (Repeat).
const capFactor = 4

// Budget returns how many repetitions a join whose default count is n may
// run on p: n without a recall target, capFactor·n with one. A join whose
// repetitions draw their randomness up front draws Budget(n) of them, in
// repetition order, so that the first n are the same either way.
func (p *Pipeline) Budget(n int) int {
	if p.Tracker == nil {
		return n
	}
	return capFactor * n
}

// Repeat is the repetition loop of every approximate join that ends in p,
// and its one stop rule (Section VI-2 of the paper): without a recall target
// it runs exactly n repetitions, the join's default count; with one
// (p.Tracker) it runs until the tracker is reached or Budget(n) have run.
// Counters.Repetitions says how many ran. Each repetition is one root task on
// internal/exec, started only if the tracker is not yet reached. worker is
// called once per worker, in worker order, with its scratch before any
// repetition starts; rep runs repetition i on the state worker returned for
// the worker that picked it up. The join keeps only what one repetition does
// and its randomness, derived from i.
func Repeat[W any](p *Pipeline, n int, worker func(*Scratch) W, rep func(c *exec.Ctx, w W, i int)) ([]Pair, Counters) {
	scratch := p.NewScratches()
	states := make([]W, len(scratch))
	for i, s := range scratch {
		states[i] = worker(s)
	}
	var ran atomic.Int64
	roots := make([]exec.Task, p.Budget(n))
	for i := range roots {
		roots[i] = func(c *exec.Ctx) {
			if p.Tracker.Reached() {
				return
			}
			ran.Add(1)
			rep(c, states[c.Worker()], i)
		}
	}
	exec.Run(p.workers, roots...)
	c := Counters{Results: int64(p.Res.Len()), Repetitions: ran.Load()}
	for _, s := range scratch {
		c.PreCandidates += s.Pre
		c.Candidates += s.Cand
	}
	return p.Res.Pairs(), c
}
