package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/websim"
	"repro/internal/xrand"
)

func TestRunExecutesEveryJob(t *testing.T) {
	for _, par := range []int{0, 1, 3, 16} {
		hits := make([]int32, 100)
		Run(len(hits), par, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("parallelism %d: job %d ran %d times", par, i, n)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	Run(0, 4, func(int) { t.Fatal("job ran") })
	Run(-1, 4, func(int) { t.Fatal("job ran") })
}

func TestRunBoundsConcurrency(t *testing.T) {
	const par = 3
	var cur, peak int32
	var mu sync.Mutex
	Run(64, par, func(int) {
		n := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > par {
		t.Fatalf("observed %d concurrent jobs, want <= %d", peak, par)
	}
}

// fakeIdentifier records the seed stream it was handed; its "result" is a
// deterministic function of (server name, condition, first rng draw), so
// batch determinism tests don't need a trained model.
type fakeIdentifier struct{}

type fakeOut struct {
	Server string
	Loss   float64
	Draw   int64
}

func (fakeIdentifier) Identify(server *websim.Server, cond netem.Condition, _ probe.Config, rng *rand.Rand) fakeOut {
	return fakeOut{Server: server.Name, Loss: cond.LossRate, Draw: rng.Int63()}
}

func batchJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Server: websim.Testbed("RENO"), Cond: netem.Condition{LossRate: float64(i) / 100}}
	}
	return jobs
}

func TestIdentifyBatchDeterministicAcrossParallelism(t *testing.T) {
	jobs := batchJobs(40)
	var want []Result[fakeOut]
	for _, par := range []int{1, 2, 7, 32} {
		got := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{Parallelism: par, Seed: 99})
		if len(got) != len(jobs) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(got), len(jobs))
		}
		for i, r := range got {
			if r.Index != i {
				t.Fatalf("parallelism %d: result %d has index %d", par, i, r.Index)
			}
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: results differ from parallelism 1", par)
		}
	}
}

func TestIdentifyBatchHonorsExplicitJobSeed(t *testing.T) {
	jobs := batchJobs(1)
	jobs[0].Seed = 12345
	a := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{Seed: 1})
	b := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{Seed: 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("explicit job seed should override the batch seed")
	}
	want := xrand.New(12345).Int63()
	if a[0].Out.Draw != want {
		t.Fatalf("job rng draw = %d, want %d (seeded 12345)", a[0].Out.Draw, want)
	}
}

func TestIdentifyBatchStreamsEveryResult(t *testing.T) {
	jobs := batchJobs(25)
	var mu sync.Mutex
	seen := map[int]fakeOut{}
	results := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
		Parallelism: 4,
		Seed:        7,
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

func TestRunWorkersCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		var ran int32
		err := RunWorkers(ctx, 100, par, func(_, _ int) { atomic.AddInt32(&ran, 1) })
		if err == nil {
			t.Fatalf("parallelism %d: want context error, got nil", par)
		}
		// The multi-worker path may admit at most the jobs already in
		// flight when cancellation is observed; a pre-cancelled context
		// must not run the bulk of the batch.
		if n := atomic.LoadInt32(&ran); n > int32(par) {
			t.Fatalf("parallelism %d: %d jobs ran after pre-cancel", par, n)
		}
	}
}

func TestRunWorkersStopsSubmittingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := RunWorkers(ctx, 10_000, 2, func(_, _ int) {
		if atomic.AddInt32(&ran, 1) == 5 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("want context error after mid-batch cancel")
	}
	// Workers observe the cancel on their next channel receive, so a
	// handful of in-flight jobs may complete -- but nowhere near all.
	if n := atomic.LoadInt32(&ran); n >= 10_000 {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
}

func TestRunWorkersCompletesWithoutCancel(t *testing.T) {
	var ran int32
	if err := RunWorkers(context.Background(), 50, 3, func(_, _ int) { atomic.AddInt32(&ran, 1) }); err != nil {
		t.Fatal(err)
	}
	if ran != 50 {
		t.Fatalf("ran %d jobs, want 50", ran)
	}
}

func TestIdentifyBatchCtxCancelSkipsRemainingJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := batchJobs(200)
	var streamed int32
	results := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
		Ctx:         ctx,
		Parallelism: 2,
		Seed:        3,
		OnResult: func(Result[fakeOut]) {
			if atomic.AddInt32(&streamed, 1) == 3 {
				cancel()
			}
		},
	})
	if len(results) != len(jobs) {
		t.Fatalf("got %d result slots, want %d", len(results), len(jobs))
	}
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
	if int(atomic.LoadInt32(&streamed)) != done {
		t.Fatalf("streamed %d results but %d slots are filled", streamed, done)
	}
}

func TestRunWorkersNilWhenCancelledAfterLastJob(t *testing.T) {
	// Cancellation landing after every job was handed out must not be
	// reported as a partial run.
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := RunWorkers(ctx, 50, par, func(_, i int) {
			if i == 49 {
				cancel()
			}
			atomic.AddInt32(&ran, 1)
		})
		cancel()
		if err != nil {
			t.Fatalf("parallelism %d: err = %v after full completion", par, err)
		}
		if ran != 50 {
			t.Fatalf("parallelism %d: ran %d of 50", par, ran)
		}
	}
}
