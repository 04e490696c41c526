// Package engine is the execution layer of the pipeline: a bounded
// worker-pool executor shared by training-set generation, the census
// runner, and batched identification. It replaces the hand-rolled
// goroutine-per-job semaphore fan-outs the pipeline started with -- the
// pool spawns min(parallelism, jobs) workers that pull job indices from a
// channel, so a million-job batch costs a handful of goroutines instead of
// a million.
package engine

import (
	"context"
	"runtime"
	"sync"
)

// DefaultParallelism is the worker count used when a caller passes 0.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// Workers returns how many pool workers Run/RunWorkers spawn for n
// jobs at the given parallelism: min(parallelism, n), with parallelism
// <= 0 meaning DefaultParallelism. Callers that pre-size per-worker
// scratch (see RunWorkers) use it to allocate exactly one slot per worker.
func Workers(n, parallelism int) int {
	if n <= 0 {
		return 0
	}
	workers := parallelism
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Run executes fn(i) for every i in [0, n) on a pool of at most
// parallelism workers and blocks until all jobs finish. parallelism <= 0
// falls back to DefaultParallelism. Job functions must be safe to run
// concurrently; writing to disjoint slots of a pre-sized results slice is
// the intended pattern (it needs no locking and keeps output order
// deterministic regardless of scheduling).
func Run(n, parallelism int, fn func(i int)) {
	RunWorkers(context.Background(), n, parallelism, func(_, i int) { fn(i) })
}

// RunWorkers is Run with cancellation and worker identity. Once ctx is
// done, no further jobs are started (jobs already running finish
// normally) and RunWorkers returns ctx.Err(). It returns nil when every
// job ran -- including when ctx is cancelled only after the last job was
// already handed to a worker. Callers that need to know which jobs were
// skipped should record completion inside fn. fn receives the index of
// the worker goroutine (in [0, Workers(n, parallelism))) running the job,
// so callers can give each worker its own reusable scratch state -- one
// session per worker, no locks -- instead of allocating per job. Jobs
// must still not depend on *which* worker runs them.
func RunWorkers(ctx context.Context, n, parallelism int, fn func(worker, job int)) error {
	return RunWorkersFlush(ctx, n, parallelism, fn, nil)
}

// RunWorkersFlush is RunWorkers with a per-worker epilogue: flush(w) runs
// on worker w's own goroutine after it has handled its last job --
// including when the run is cancelled -- so workers that buffer state
// across jobs (the pipeline's block sessions, which park gathered feature
// vectors until a whole inference block is full) get exactly one
// guaranteed drain point. A nil flush makes it RunWorkers.
func RunWorkersFlush(ctx context.Context, n, parallelism int, fn func(worker, job int), flush func(worker int)) error {
	if n <= 0 {
		return nil
	}
	workers := Workers(n, parallelism)
	if workers == 1 {
		if flush != nil {
			defer flush(0)
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				fn(worker, i)
			}
			if flush != nil {
				flush(worker)
			}
		}(w)
	}
	done := ctx.Done()
	cancelled := false
submit:
	for i := 0; i < n; i++ {
		// Checked first so cancellation wins even when a worker is ready
		// to receive (select picks ready cases at random).
		select {
		case <-done:
			cancelled = true
			break submit
		default:
		}
		select {
		case jobs <- i:
		case <-done:
			cancelled = true
			break submit
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled {
		return ctx.Err()
	}
	return nil
}
