package exec

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAllRoots(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var count atomic.Int64
		roots := make([]Task, 100)
		for i := range roots {
			roots[i] = func(c *Ctx) { count.Add(1) }
		}
		Run(workers, roots...)
		if got := count.Load(); got != 100 {
			t.Errorf("workers=%d: ran %d of 100 roots", workers, got)
		}
	}
}

func TestSpawnedTasksComplete(t *testing.T) {
	// A three-level fan-out: 8 roots each spawn 8 children, each child
	// spawns 8 grandchildren. All 8 + 64 + 512 tasks must run.
	for _, workers := range []int{1, 3, 7} {
		var count atomic.Int64
		roots := make([]Task, 8)
		for i := range roots {
			roots[i] = func(c *Ctx) {
				count.Add(1)
				for j := 0; j < 8; j++ {
					c.Spawn(func(c *Ctx) {
						count.Add(1)
						for k := 0; k < 8; k++ {
							c.Spawn(func(c *Ctx) { count.Add(1) })
						}
					})
				}
			}
		}
		Run(workers, roots...)
		if got := count.Load(); got != 8+64+512 {
			t.Errorf("workers=%d: ran %d of %d tasks", workers, got, 8+64+512)
		}
	}
}

func TestDeepRecursiveSpawn(t *testing.T) {
	// A single chain of depth 10000: each task spawns exactly one
	// successor. Exercises quiescence detection when the pool is mostly
	// idle.
	var depth atomic.Int64
	var chain func(d int) Task
	chain = func(d int) Task {
		return func(c *Ctx) {
			depth.Add(1)
			if d > 0 {
				c.Spawn(chain(d - 1))
			}
		}
	}
	Run(4, chain(9999))
	if got := depth.Load(); got != 10000 {
		t.Errorf("chain ran %d of 10000 links", got)
	}
}

func TestWorkerIndexInRange(t *testing.T) {
	const workers = 4
	var bad atomic.Int64
	roots := make([]Task, 64)
	for i := range roots {
		roots[i] = func(c *Ctx) {
			if c.Worker() < 0 || c.Worker() >= workers || c.Workers() != workers {
				bad.Add(1)
			}
		}
	}
	Run(workers, roots...)
	if bad.Load() != 0 {
		t.Errorf("%d tasks saw an out-of-range worker index", bad.Load())
	}
}

// TestWorkStealingSpreadsLoad proves stealing without relying on scheduler
// timing: one root spawns tasks onto its own deque and then refuses to
// return until one of them has run on a different worker. The root's worker
// is stuck inside the root, so the only way that can happen is a steal —
// on any CPU count, since a blocked root yields to the other workers'
// goroutines.
func TestWorkStealingSpreadsLoad(t *testing.T) {
	const workers = 4
	stolen := make(chan struct{})
	var once sync.Once
	var ran atomic.Int64
	root := func(c *Ctx) {
		home := c.Worker()
		for i := 0; i < 100; i++ {
			c.Spawn(func(c *Ctx) {
				ran.Add(1)
				if c.Worker() != home {
					once.Do(func() { close(stolen) })
				}
			})
		}
		select {
		case <-stolen:
		case <-time.After(30 * time.Second):
			t.Error("no spawned task ran on another worker while the spawner was blocked; stealing ineffective")
		}
	}
	before := ReadStats().Steals
	Run(workers, root)
	if ran.Load() != 100 {
		t.Errorf("%d of 100 spawned tasks ran", ran.Load())
	}
	if ReadStats().Steals == before {
		t.Error("a task ran off its spawner's worker but the steal counter did not move")
	}
}

func TestZeroWorkersSelectsGOMAXPROCS(t *testing.T) {
	ran := false
	Run(0, func(c *Ctx) { ran = true })
	if !ran {
		t.Error("root did not run")
	}
	if p := NewPool(0); p.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(0).Workers() = %d, want GOMAXPROCS", p.Workers())
	}
}

func TestEmptyRun(t *testing.T) {
	Run(4) // must not hang
}

func TestRunItemsCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			RunItems(workers, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestReadStats(t *testing.T) {
	before := ReadStats()
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = func(c *Ctx) {}
	}
	Run(4, tasks...)
	after := ReadStats()
	if got := after.TasksRun - before.TasksRun; got < 64 {
		t.Errorf("TasksRun delta = %d, want >= 64", got)
	}
	if after.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after quiescence, want 0", after.QueueDepth)
	}
	if after.Steals < before.Steals {
		t.Errorf("Steals decreased: %d -> %d", before.Steals, after.Steals)
	}
}

// goroutineID reads the running goroutine's number off its stack header
// ("goroutine 18 [running]:"): the only way to tell goroutines apart, and
// good enough for a test.
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestOneWorkerIsTheCaller pins what the joins are written against: a pool of
// one worker starts no goroutine. Run, RunChunks and RunItems execute their
// tasks on the calling goroutine as worker 0 — roots and chunks in
// submission order, a spawned task to completion before Spawn returns, which
// makes a spawning recursion the plain depth-first one — and a single chunk
// runs there whatever the worker count. The tasks still show in ReadStats.
func TestOneWorkerIsTheCaller(t *testing.T) {
	caller := goroutineID()
	var order []int
	record := func(id int) {
		if g := goroutineID(); g != caller {
			t.Errorf("task %d runs on goroutine %s, the caller is %s", id, g, caller)
		}
		order = append(order, id)
	}
	visit := func(c *Ctx, id int) {
		if c.Worker() != 0 || c.Workers() != 1 {
			t.Errorf("task %d: worker %d of %d, want 0 of 1", id, c.Worker(), c.Workers())
		}
		record(id)
	}
	// Each node of a binary tree spawns its children 2id+1 and 2id+2.
	var node func(id int) Task
	node = func(id int) Task {
		return func(c *Ctx) {
			visit(c, id)
			if id < 3 {
				c.Spawn(node(2*id + 1))
				c.Spawn(node(2*id + 2))
			}
		}
	}
	before := ReadStats()
	Run(1, node(0), func(c *Ctx) { visit(c, 100) }, func(c *Ctx) { visit(c, 101) })
	if want := []int{0, 1, 3, 4, 2, 5, 6, 100, 101}; !slices.Equal(order, want) {
		t.Errorf("Run(1): order %v, want depth first, roots in submission order: %v", order, want)
	}
	after := ReadStats()
	if got := after.TasksRun - before.TasksRun; got != 9 {
		t.Errorf("TasksRun moved by %d over 9 tasks", got)
	}
	if after.Steals != before.Steals || after.QueueDepth != before.QueueDepth {
		t.Errorf("steals %d -> %d, queue depth %d -> %d: a one-worker run queues nothing", before.Steals, after.Steals, before.QueueDepth, after.QueueDepth)
	}

	order = order[:0]
	RunChunks(1, 10, 3, func(c *Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			visit(c, i)
		}
	})
	RunItems(1, 5, func(i int) { record(10 + i) })
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}; !slices.Equal(order, want) {
		t.Errorf("RunChunks(1), RunItems(1): order %v, want ascending", order)
	}

	// One chunk is one task: no second goroutine for it at any worker count.
	order = order[:0]
	RunChunks(4, 10, 10, func(c *Ctx, lo, hi int) { visit(c, hi-lo) })
	RunItems(4, 1, record)
	if want := []int{10, 0}; !slices.Equal(order, want) {
		t.Errorf("single chunk: ran %v, want %v", order, want)
	}
}
