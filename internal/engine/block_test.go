package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
)

// fakeBlock buffers fakeIdentifier outcomes like a pipeline block session,
// recording non-empty flush widths so tests can assert when blocks drain.
type fakeBlock struct {
	buf     []Result[fakeOut]
	mu      *sync.Mutex
	flushes *[]int
}

func (b *fakeBlock) Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) {
	out := fakeIdentifier{}.Identify(server, cond, cfg, rng)
	b.buf = append(b.buf, Result[fakeOut]{Index: tag, Out: out})
}

func (b *fakeBlock) Buffered() int { return len(b.buf) }

func (b *fakeBlock) Flush(emit func(tag int, out fakeOut)) {
	if len(b.buf) > 0 && b.flushes != nil {
		b.mu.Lock()
		*b.flushes = append(*b.flushes, len(b.buf))
		b.mu.Unlock()
	}
	for _, r := range b.buf {
		emit(r.Index, r.Out)
	}
	b.buf = b.buf[:0]
}

// blockJobs is two full DefaultBlockSize blocks plus a partial third, so a
// single worker exercises both the in-loop flush and the epilogue drain.
const blockJobs = 2*DefaultBlockSize + DefaultBlockSize/2

// TestIdentifyBatchBlockMatchesScalar: the block path must reproduce the
// scalar path result for result, whatever the parallelism -- grouping jobs
// into blocks is an execution detail, not a semantic one.
func TestIdentifyBatchBlockMatchesScalar(t *testing.T) {
	jobs := batchJobs(blockJobs + 3)
	want := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{Parallelism: 1, Seed: 17})
	for _, par := range []int{1, 3, 8} {
		got := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
			Parallelism:    par,
			Seed:           17,
			NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{} },
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: block results differ from scalar", par)
		}
	}
}

// TestIdentifyBatchBlockFlushWidths: a single worker over blockJobs jobs
// must drain exactly as two full blocks and the epilogue's partial flush.
func TestIdentifyBatchBlockFlushWidths(t *testing.T) {
	var mu sync.Mutex
	var flushes []int
	IdentifyBatch[fakeOut](fakeIdentifier{}, batchJobs(blockJobs), BatchConfig[fakeOut]{
		Parallelism:    1,
		Seed:           5,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{mu: &mu, flushes: &flushes} },
	})
	want := []int{DefaultBlockSize, DefaultBlockSize, DefaultBlockSize / 2}
	if !reflect.DeepEqual(flushes, want) {
		t.Fatalf("flush widths = %v, want %v", flushes, want)
	}
}

// TestIdentifyBatchBlockStreamsEveryResult: OnResult must see every job
// exactly once, matching the returned slice, even though results arrive
// in block-sized bursts.
func TestIdentifyBatchBlockStreamsEveryResult(t *testing.T) {
	jobs := batchJobs(4*DefaultBlockSize + 25)
	var mu sync.Mutex
	seen := map[int]fakeOut{}
	results := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
		Parallelism:    4,
		Seed:           7,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{} },
		OnResult: func(r Result[fakeOut]) {
			mu.Lock()
			seen[r.Index] = r.Out
			mu.Unlock()
		},
	})
	if len(seen) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(jobs))
	}
	for _, r := range results {
		if seen[r.Index] != r.Out {
			t.Fatalf("streamed result %d disagrees with returned result", r.Index)
		}
	}
}

// TestIdentifyBatchBlockCancelDrainsGathered: cancelling mid-batch must
// still deliver every job that was gathered -- a probe already spent must
// not lose its result in a worker's partial block -- while jobs never
// gathered keep zero slots.
func TestIdentifyBatchBlockCancelDrainsGathered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := batchJobs(40 * DefaultBlockSize)
	var mu sync.Mutex
	streamed := 0
	results := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
		Ctx:            ctx,
		Parallelism:    2,
		Seed:           3,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] { return &fakeBlock{} },
		OnResult: func(Result[fakeOut]) {
			mu.Lock()
			streamed++
			if streamed == DefaultBlockSize {
				cancel()
			}
			mu.Unlock()
		},
	})
	var done, skipped int
	for _, r := range results {
		if r.Job.Server != nil {
			done++
		} else {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("cancelled batch skipped no jobs")
	}
	mu.Lock()
	defer mu.Unlock()
	if streamed != done {
		t.Fatalf("streamed %d results but %d slots are filled -- gathered jobs were dropped", streamed, done)
	}
}
