package verify

import "repro/internal/exec"

// Repeat is the repetition loop of every approximate join that ends in p: it
// runs exactly n repetitions, the join's count, and Counters.Repetitions is
// n. Each repetition is one root task on internal/exec. worker is called once
// per worker, in worker order, with its scratch before any repetition starts;
// rep runs repetition i on the state worker returned for the worker that
// picked it up. The join keeps only what one repetition does and its
// randomness, derived from i alone, so a join at n repetitions reports a
// subset of the pairs it reports at n + 1.
func Repeat[W any](p *Pipeline, n int, worker func(*Scratch) W, rep func(c *exec.Ctx, w W, i int)) ([]Pair, Counters) {
	scratch := p.NewScratches()
	states := make([]W, len(scratch))
	for i, s := range scratch {
		states[i] = worker(s)
	}
	roots := make([]exec.Task, n)
	for i := range roots {
		roots[i] = func(c *exec.Ctx) { rep(c, states[c.Worker()], i) }
	}
	exec.Run(p.workers, roots...)
	c := Counters{Results: int64(p.Res.Len()), Repetitions: int64(n)}
	for _, s := range scratch {
		c.PreCandidates += s.Pre
		c.Candidates += s.Cand
	}
	return p.Res.Pairs(), c
}
