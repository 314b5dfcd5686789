package main

// The traced run. It rebuilds a workload's inputs in-process and times the
// calls into each layer's public functions from outside, one span per
// call; nothing inside the program is instrumented (that is a later
// change). A layer's self time is its spans' time minus the time of the
// spans they caused.
//
// Counts and times that belong to the child processes (ring counters from
// /v1/stats, the rate ladder, the generator's lag) come from a shortened
// end-to-end pass of the same workload, run first.

import (
	"context"
	"os"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/intset"
)

// span is one timed call into a layer. Spans of one request share Request;
// Parent is the span that caused this one (0: none).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Request int                `json:"request"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the replay is sequential so that a span's time is its own.
type tracer struct {
	off   bool // record nothing: the baseline of trace.overhead_pct
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do times fn as a span and returns its duration. fn receives the span's
// id, to pass as parent to the calls it causes.
func (t *tracer) do(parent, request int, name string, fn func(id int)) time.Duration {
	if t.off {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name})
	start := time.Now()
	fn(id)
	end := time.Now()
	t.spans[id-1].StartNs, t.spans[id-1].EndNs = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	return end.Sub(start)
}

// count attaches a count to a span, at the boundary where the work
// happened.
func (t *tracer) count(id int, name string, v float64) {
	if t.off || id == 0 {
		return
	}
	if t.spans[id-1].Counts == nil {
		t.spans[id-1].Counts = map[string]float64{}
	}
	t.spans[id-1].Counts[name] = v
}

// selfTimes returns, per span id, the span's duration minus its children's.
func (t *tracer) selfTimes() map[int]time.Duration {
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// perRequest returns, for every request that has a span called name, the
// total duration (or self time) of its spans of that name, in µs.
func (t *tracer) perRequest(name string, selfOnly bool) []float64 {
	var self map[int]time.Duration
	if selfOnly {
		self = t.selfTimes()
	}
	byReq := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name || s.Request == 0 {
			continue
		}
		if _, seen := byReq[s.Request]; !seen {
			order = append(order, s.Request)
		}
		d := s.dur()
		if selfOnly {
			d = self[s.ID]
		}
		byReq[s.Request] += float64(d) / 1e3
	}
	out := make([]float64, len(order))
	for i, r := range order {
		out[i] = byReq[r]
	}
	return out
}

// mallocs runs fn and returns the heap allocations it made and the bytes
// it allocated.
func mallocs(fn func()) (count, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func runTraced(ctx context.Context, h *harness, workload string, seed uint64, seconds float64) (*workloadResult, []span, error) {
	res := newResult(workload, seed, seconds, true)
	for _, m := range layerMetrics {
		res.Metrics[m.Name] = 0 // a layer the workload bypasses reports 0
	}
	tr := newTracer()
	var t tally
	var err error
	if isJoin(workload) {
		err = traceJoin(ctx, h, tr, &t, res, workload, seed)
	} else {
		err = traceServe(ctx, h, tr, &t, res, workload, seed, seconds/2)
	}
	if err != nil {
		return nil, nil, err
	}
	traceVerify(res, seed)
	res.finish(&t)
	return res, tr.spans, nil
}

// traceVerify measures the exact-verification kernel every layer shares,
// on a fixed million-pair sample of a flat collection.
func traceVerify(res *workloadResult, seed uint64) {
	c := generate(flatShape(20000, 0), seed)
	r := newRNG(seed, "verify")
	const pairs = 1 << 20
	idx := make([][2]int32, pairs)
	for i := range idx {
		idx[i] = [2]int32{int32(r.intn(len(c.Sets))), int32(r.intn(len(c.Sets)))}
	}
	rejected := 0
	start := time.Now()
	for _, p := range idx {
		if _, ok := intset.JaccardAtLeast(c.Sets[p[0]], c.Sets[p[1]], serveLambda); !ok {
			rejected++
		}
	}
	res.Metrics["intset.verify_ns_per_pair"] = float64(time.Since(start).Nanoseconds()) / pairs
	// Only a rejected pair can leave the merge early; from outside the
	// kernel that is the observable upper bound on early exits.
	res.Metrics["intset.verify_early_exit_ratio"] = float64(rejected) / pairs
}

// execDelta runs fn and returns the execution layer's task and steal
// counts for it.
func execDelta(fn func()) (tasks, steals float64) {
	before := exec.ReadStats()
	fn()
	after := exec.ReadStats()
	return float64(after.TasksRun - before.TasksRun), float64(after.Steals - before.Steals)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
