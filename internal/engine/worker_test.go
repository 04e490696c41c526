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
)

func TestWorkersBounds(t *testing.T) {
	cases := []struct{ n, par, want int }{
		{0, 4, 0},
		{10, 4, 4},
		{3, 4, 3},
	}
	for _, tc := range cases {
		if got := Workers(tc.n, tc.par); got != tc.want {
			t.Fatalf("Workers(%d, %d) = %d, want %d", tc.n, tc.par, got, tc.want)
		}
	}
	if got := Workers(3, 0); got > 3 || got < 1 {
		t.Fatalf("Workers(3, 0) = %d, want in [1, 3]", got)
	}
}

func TestRunWorkersIdentityInRange(t *testing.T) {
	const n, par = 100, 5
	workers := Workers(n, par)
	seen := make([]int32, n)
	var bad atomic.Int32
	err := RunWorkers(context.Background(), n, par, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
		atomic.AddInt32(&seen[i], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d jobs saw a worker index outside [0, %d)", bad.Load(), workers)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

// countingBlock is a fakeBlock that tallies every job it gathers.
type countingBlock struct {
	fakeBlock
	n *atomic.Int64
}

func (c *countingBlock) Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) {
	c.n.Add(1)
	c.fakeBlock.Gather(tag, server, cond, cfg, rng)
}

// TestIdentifyBatchPerWorkerSessions: with NewWorkerBlock set, the factory
// is called once per pool worker, every job runs on a worker's session
// (never the shared identifier), and results are identical to the shared
// run.
func TestIdentifyBatchPerWorkerSessions(t *testing.T) {
	jobs := batchJobs(30)
	want := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{Parallelism: 4, Seed: 5})

	var mu sync.Mutex
	var made int
	var jobCount atomic.Int64
	got := IdentifyBatch[fakeOut](fakeIdentifier{}, jobs, BatchConfig[fakeOut]{
		Parallelism: 4,
		Seed:        5,
		NewWorkerBlock: func() BlockIdentifier[fakeOut] {
			mu.Lock()
			made++
			mu.Unlock()
			return &countingBlock{n: &jobCount}
		},
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("per-worker sessions changed batch results")
	}
	workers := Workers(len(jobs), 4)
	if made != workers {
		t.Fatalf("factory ran %d times, want one per worker (%d)", made, workers)
	}
	if n := jobCount.Load(); n != int64(len(jobs)) {
		t.Fatalf("sessions ran %d jobs, want %d (shared identifier must not be used)", n, len(jobs))
	}
}
