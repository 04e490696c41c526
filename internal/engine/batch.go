package engine

import (
	"context"
	"math/rand"

	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// Job is one identification request: probe one server under one network
// condition. Seed, when non-zero, pins the job's randomness; otherwise the
// batch derives a per-job seed from BatchConfig.Seed and the job index, so
// results are reproducible and independent of worker scheduling either way.
type Job struct {
	Server *websim.Server
	Cond   netem.Condition
	Seed   int64
}

// Result pairs a job with its outcome. Index is the job's position in the
// input slice (results are also returned in input order).
type Result[R any] struct {
	Index int
	Job   Job
	Out   R
}

// Identifier abstracts core.Identifier (or any compatible pipeline) for
// batching without an import cycle: core depends on the engine's pool, so
// the engine cannot depend on core's types.
type Identifier[R any] interface {
	Identify(server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) R
}

// BlockIdentifier is the block-inference counterpart of Identifier: a
// per-worker session that probes jobs one at a time but defers the
// finishing model inference, parking gathered feature vectors until the
// engine flushes a whole block through the classifier's batched kernel
// (core.BlockSession is the pipeline implementation). Implementations
// must be equivalent to the scalar path job for job -- a job's result
// must not depend on which block it landed in.
type BlockIdentifier[R any] interface {
	// Gather probes one job and buffers its finishing work under tag.
	Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand)
	// Buffered reports how many gathered jobs await Flush.
	Buffered() int
	// Flush finishes every buffered job -- one batched inference for the
	// whole block -- and emits each (tag, result), leaving the session
	// empty. Flushing an empty session is a no-op.
	Flush(emit func(tag int, out R))
}

// BatchConfig controls IdentifyBatch.
type BatchConfig[R any] struct {
	// Ctx, when non-nil, cancels the batch: once Ctx is done no further
	// jobs are started (in-flight probes finish) and the Result slots of
	// jobs that never ran are left zero -- their Job.Server is nil and
	// OnResult was never called for them. A nil Ctx never cancels.
	Ctx context.Context
	// Parallelism bounds concurrent probes; 0 = DefaultParallelism.
	Parallelism int
	// Probe customizes the prober (zero = paper defaults).
	Probe probe.Config
	// Seed derives per-job seeds for jobs that leave Job.Seed zero.
	Seed int64
	// OnResult, when set, streams each result as its probe completes
	// (completion order, not input order). Calls are serialized; the
	// callback must not block for long or it stalls the pool.
	OnResult func(Result[R])
	// NewWorkerBlock, when set, switches the batch to block inference:
	// each pool worker gathers its jobs into a BlockIdentifier and the
	// engine flushes a whole block through the model at once (every
	// DefaultBlockSize gathered jobs, plus a final drain when the worker
	// runs out of jobs or the batch is cancelled). Results are identical
	// to the scalar path; OnResult streaming simply arrives in
	// block-sized bursts.
	NewWorkerBlock func() BlockIdentifier[R]
}

// DefaultBlockSize is the block-inference flush width: a worker's block
// session classifies once it holds this many gathered jobs. It is large
// enough to amortise the batched kernel's per-tree lane resets and small
// enough that streamed results arrive in short bursts.
const DefaultBlockSize = 64

// jobSeedStride spaces derived per-job seeds (a prime, like the strides
// used elsewhere in the pipeline, so neighbouring jobs never share RNG
// streams).
const jobSeedStride = 15485863

// IdentifyBatch probes every job on the worker pool and returns the
// results in input order. Each job runs with its own deterministically
// seeded RNG, so a batch's output is a pure function of (jobs, cfg.Seed)
// regardless of cfg.Parallelism or scheduling -- the block-inference path
// (cfg.NewWorkerBlock) keeps that property because block classification
// is bit-identical to scalar classification no matter how jobs group into
// blocks. Set cfg.Ctx to make the batch cancellable (see BatchConfig.Ctx
// for the partial-result contract).
func IdentifyBatch[R any](id Identifier[R], jobs []Job, cfg BatchConfig[R]) []Result[R] {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result[R], len(jobs))
	var stream chan Result[R]
	done := make(chan struct{})
	if cfg.OnResult != nil {
		stream = make(chan Result[R])
		go func() {
			defer close(done)
			for r := range stream {
				cfg.OnResult(r)
			}
		}()
	} else {
		close(done)
	}
	jobSeed := func(i int) int64 {
		if s := jobs[i].Seed; s != 0 {
			return s
		}
		return cfg.Seed + int64(i+1)*jobSeedStride
	}
	// One RNG per worker, reseeded between jobs: a job's stream depends
	// only on its seed, so reseeding is indistinguishable from a fresh
	// xrand.New -- without two allocations per job.
	rngs := make([]*rand.Rand, Workers(len(jobs), cfg.Parallelism))
	for w := range rngs {
		rngs[w] = xrand.New(0)
	}
	jobRNG := func(w, i int) *rand.Rand {
		xrand.Reseed(rngs[w], jobSeed(i))
		return rngs[w]
	}
	if cfg.NewWorkerBlock != nil {
		// Block inference: each worker gathers probes into its own block
		// session and the model runs once per block instead of once per
		// job. The commit callback runs on the gathering worker's own
		// goroutine; result slots are disjoint, so only the stream channel
		// is shared.
		blocks := make([]BlockIdentifier[R], Workers(len(jobs), cfg.Parallelism))
		for w := range blocks {
			blocks[w] = cfg.NewWorkerBlock()
		}
		commit := func(tag int, out R) {
			results[tag] = Result[R]{Index: tag, Job: jobs[tag], Out: out}
			if stream != nil {
				stream <- results[tag]
			}
		}
		RunWorkersFlush(ctx, len(jobs), cfg.Parallelism,
			func(w, i int) {
				blocks[w].Gather(i, jobs[i].Server, jobs[i].Cond, cfg.Probe, jobRNG(w, i))
				if blocks[w].Buffered() >= DefaultBlockSize {
					blocks[w].Flush(commit)
				}
			},
			// The epilogue drains the worker's partial block; it also runs
			// on cancellation, so jobs that already spent their probe still
			// deliver their result.
			func(w int) { blocks[w].Flush(commit) })
	} else {
		RunWorkers(ctx, len(jobs), cfg.Parallelism, func(w, i int) {
			jb := jobs[i]
			out := id.Identify(jb.Server, jb.Cond, cfg.Probe, jobRNG(w, i))
			results[i] = Result[R]{Index: i, Job: jb, Out: out}
			if stream != nil {
				stream <- results[i]
			}
		})
	}
	if stream != nil {
		close(stream)
	}
	<-done
	return results
}
