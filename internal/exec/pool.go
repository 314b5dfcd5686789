// Package exec is the shared parallel execution layer of the join
// algorithms: a bounded work-stealing task pool.
//
// Section VII of the CPSJoin paper observes that "recursive methods such
// as ours lend themselves well to parallel and distributed implementations
// since most of the computation happens in independent, recursive calls".
// This package turns that observation into infrastructure: algorithms
// decompose their work — whole repetitions, recursion subtrees, probe
// ranges — into Tasks, and the pool executes them on a fixed set of
// workers. Tasks spawned by a running task go to that worker's local deque
// (LIFO, preserving the depth-first locality of the recursion they came
// from); idle workers steal from the opposite end of other workers' deques
// (FIFO, so the largest still-undecomposed subtrees migrate first).
//
// The pool makes no ordering promises. Algorithms that must produce
// identical results regardless of worker count derive all randomness from
// per-task seeds and publish results into order-insensitive sinks (see
// verify.ResultSet); every algorithm in this repository follows that
// discipline.
//
// A pool of one worker is the calling goroutine: Run executes the roots in
// submission order, Spawn runs the task before it returns, and nothing is
// queued, started or locked. A recursion that spawns its subtrees is then
// the plain depth-first recursion, so an algorithm is written once, against
// this package, and its worker count is a number: nothing above exec
// branches on it.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one unit of work. Tasks may spawn further tasks through the Ctx;
// the pool runs until every spawned task has completed.
type Task func(c *Ctx)

// Package-level execution counters, aggregated across every pool (pools in
// this repository are ephemeral — one per Run call — so per-pool counters
// would vanish before anyone could read them). All updates are single
// atomic RMWs on the existing queue-operation paths, which are already far
// off the hot path (see deque).
var (
	tasksRun   atomic.Uint64
	steals     atomic.Uint64
	queueDepth atomic.Int64
)

// Stats is a point-in-time snapshot of the package-level execution
// counters.
type Stats struct {
	TasksRun   uint64 // tasks completed, across all pools since process start
	Steals     uint64 // tasks taken from another worker's deque
	QueueDepth int64  // tasks queued or executing on pools of two or more workers
}

// ReadStats returns the current package-level execution counters.
func ReadStats() Stats {
	return Stats{
		TasksRun:   tasksRun.Load(),
		Steals:     steals.Load(),
		QueueDepth: queueDepth.Load(),
	}
}

// EffectiveWorkers maps the Workers knob shared by every join Options
// struct to an actual worker count: 0 (the zero value) runs sequentially,
// negative selects GOMAXPROCS, positive is taken as given.
func EffectiveWorkers(w int) int {
	if w == 0 {
		return 1
	}
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Ctx is passed to every running task: it identifies the executing worker
// and is the handle for spawning subtasks.
type Ctx struct {
	pool   *Pool
	worker int
}

// Worker returns the index of the executing worker in [0, Workers()).
// Algorithms use it to address per-worker scratch space without locking.
func (c *Ctx) Worker() int { return c.worker }

// Workers returns the pool's worker count.
func (c *Ctx) Workers() int { return c.pool.workers }

// Spawn schedules t for execution. The task lands on the executing
// worker's own deque and is typically run by that worker next (LIFO),
// unless another worker steals it. On a pool of one worker it runs here
// and now: when Spawn returns, t and everything it spawned are done.
func (c *Ctx) Spawn(t Task) {
	if c.pool.workers == 1 {
		t(c)
		tasksRun.Add(1)
		return
	}
	c.pool.push(c.worker, t)
}

// Pool is a bounded work-stealing task pool: a fixed number of workers,
// one deque per worker, and a global quiescence count. A Pool executes one
// batch of root tasks (plus everything they spawn) per Run call.
type Pool struct {
	workers int
	deques  []deque
	pending atomic.Int64 // tasks spawned but not yet completed
	wake    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// deque is one worker's task queue. A mutex-guarded slice is deliberately
// simple: tasks in this repository are coarse enough (whole subtrees,
// probe chunks) that queue operations are far off the critical path, and
// the single implementation is easy to reason about under -race.
type deque struct {
	mu sync.Mutex
	q  []Task
	_  [32]byte // keep neighboring deques off one cache line
}

// NewPool returns a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return &Pool{workers: 1} // the caller's goroutine: no queue to allocate
	}
	return &Pool{
		workers: workers,
		deques:  make([]deque, workers),
		wake:    make(chan struct{}, workers),
		done:    make(chan struct{}),
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Run executes the root tasks and everything they spawn, blocking until
// the pool is quiescent. It must be called at most once per Pool.
func (p *Pool) Run(roots ...Task) {
	if p.workers == 1 {
		c := &Ctx{pool: p}
		for _, t := range roots {
			c.Spawn(t)
		}
		return
	}
	if len(roots) == 0 {
		return
	}
	// Seed round-robin before any worker starts, so pending can only hit
	// zero when all work is truly done.
	for i, t := range roots {
		p.push(i%p.workers, t)
	}
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p.work(id)
		}(w)
	}
	wg.Wait()
}

// Run executes the root tasks on a fresh pool of the given size; it is the
// package's main entry point. workers <= 0 selects GOMAXPROCS.
func Run(workers int, roots ...Task) {
	NewPool(workers).Run(roots...)
}

// RunChunks partitions [0, n) into contiguous chunks and runs f over them
// on a pool of the given size — the shared fan-out shape of the
// data-parallel stages (index probing, signature computation). chunk <= 0
// derives a size that yields roughly 16 chunks per worker with a floor of
// 64, small enough that stealing rebalances skewed per-item cost. A single
// chunk needs no second goroutine and runs on the caller's, like every
// chunk of a one-worker run.
func RunChunks(workers, n, chunk int, f func(c *Ctx, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = n / (max(workers, 1) * 16)
		if chunk < 64 {
			chunk = 64
		}
	}
	if n <= chunk {
		workers = 1
	}
	tasks := make([]Task, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, lo+chunk
		if hi > n {
			hi = n
		}
		tasks = append(tasks, func(c *Ctx) { f(c, lo, hi) })
	}
	Run(workers, tasks...)
}

// RunItems runs f for every i in [0, n) on a pool of the given size.
// Chunks are an eighth of an even split — finer than RunChunks' default —
// for fan-outs with skewed per-item cost (e.g. batch queries, where
// result-heavy items verify more candidates), so stealing can rebalance.
// Each item must write only its own slot of any shared output; the call
// returns after all items complete.
func RunItems(workers, n int, f func(i int)) {
	RunChunks(workers, n, max(1, n/(max(workers, 1)*8)), func(c *Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

func (p *Pool) push(worker int, t Task) {
	p.pending.Add(1)
	queueDepth.Add(1)
	d := &p.deques[worker]
	d.mu.Lock()
	d.q = append(d.q, t)
	d.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// popLocal takes the newest task from the worker's own deque (LIFO).
func (p *Pool) popLocal(worker int) Task {
	d := &p.deques[worker]
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.q)
	if n == 0 {
		return nil
	}
	t := d.q[n-1]
	d.q[n-1] = nil
	d.q = d.q[:n-1]
	return t
}

// steal takes the oldest task from some other worker's deque (FIFO).
func (p *Pool) steal(worker int) Task {
	for i := 1; i < p.workers; i++ {
		d := &p.deques[(worker+i)%p.workers]
		d.mu.Lock()
		if len(d.q) > 0 {
			t := d.q[0]
			copy(d.q, d.q[1:])
			d.q[len(d.q)-1] = nil
			d.q = d.q[:len(d.q)-1]
			d.mu.Unlock()
			steals.Add(1)
			return t
		}
		d.mu.Unlock()
	}
	return nil
}

func (p *Pool) work(id int) {
	c := &Ctx{pool: p, worker: id}
	idle := 0
	for {
		t := p.popLocal(id)
		if t == nil {
			t = p.steal(id)
		}
		if t == nil {
			if p.pending.Load() == 0 {
				return
			}
			// Work exists or is in flight elsewhere. Spin briefly (a
			// spawning task usually follows within microseconds), then
			// park on the wake channel.
			idle++
			if idle < 4 {
				runtime.Gosched()
				continue
			}
			select {
			case <-p.wake:
			case <-p.done:
				return
			}
			continue
		}
		idle = 0
		t(c)
		tasksRun.Add(1)
		queueDepth.Add(-1)
		if p.pending.Add(-1) == 0 {
			// Last task: release every parked worker.
			p.once.Do(func() { close(p.done) })
			return
		}
	}
}
