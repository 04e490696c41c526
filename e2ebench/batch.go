package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/websim"
	"repro/internal/xrand"
)

const (
	// batchJobs is the number of specs per POST /v1/batch.
	batchJobs = 256
	// pollInterval is the fixed GET /v1/jobs/{id} period.
	pollInterval = 10 * time.Millisecond
	// maxJobsPerSecond caps the pre-generated jobs (a 2-core box runs
	// about five per second).
	maxJobsPerSecond = 20
)

// batch is the batch workload: one closed-loop client submits a batch of
// fresh specs, polls the job until it is done, and submits the next.
type batch struct {
	rng   *rand.Rand
	specs [][]service.JobSpec // per job
	body  [][]byte

	done    []service.JobStatus // final status of each finished job
	latency []float64           // ms, submit to observed done
	polls   int
	failed  int
}

func newBatch(seed int64) *batch {
	return &batch{rng: subRNG(seed, streamBatch)}
}

// jobSpecs returns job j's specs, generating jobs in order on demand (the
// same seed gives the same job sequence however far a run gets).
func (w *batch) jobSpecs(j int) ([]service.JobSpec, []byte) {
	for len(w.specs) <= j {
		specs := identifySpecs(w.rng, batchJobs)
		w.specs = append(w.specs, specs)
		w.body = append(w.body, jsonBodies([]service.BatchRequest{{Jobs: specs}})[0])
	}
	return w.specs[j], w.body[j]
}

func (w *batch) prepare(b *bench, _ *client) error {
	// Generate the jobs a run can reach before timing starts.
	w.jobSpecs(int(b.seconds.Seconds()) * maxJobsPerSecond)
	return nil
}

func (w *batch) drive(b *bench, c *client) (*phase, error) {
	start := time.Now()
	deadline := start.Add(b.seconds)
	var ids, bytesIn int
	var last time.Time
	for j := 0; time.Now().Before(deadline) && j < len(w.body); j++ {
		_, body := w.jobSpecs(j)
		t := time.Now()
		st, done, polls, err := runJob(c, body)
		w.polls += polls
		if err != nil || st.State != service.StateDone || len(st.Results) != batchJobs {
			w.failed++
			logf("batch job %d: state %q, %d results, err %v", j, st.State, len(st.Results), err)
			w.done = append(w.done, service.JobStatus{})
			continue
		}
		w.done = append(w.done, st)
		w.latency = append(w.latency, ms(done.Sub(t)))
		ids += len(st.Results)
		bytesIn += len(body)
		last = done
	}
	if len(w.latency) == 0 {
		return nil, fmt.Errorf("no batch job completed")
	}
	secs := last.Sub(start).Seconds()
	ph := &phase{
		e2e:       map[string]float64{"ids_per_s": float64(ids) / secs, "mb_per_s": float64(bytesIn) / 1e6 / secs},
		ops:       len(w.done),
		attempted: len(w.done),
		failed:    w.failed,
		polls:     w.polls,
		detail:    map[string]any{"jobs": len(w.done), "job_size": batchJobs, "poll_interval_ms": ms(pollInterval), "polls": w.polls},
	}
	ph.e2e["p50_ms"] = median(append([]float64(nil), w.latency...))
	ph.clientOpMs = ph.e2e["p50_ms"]
	return ph, nil
}

// runJob submits one batch and polls it to a final state, returning the
// final status, when it was observed, and the number of polls.
func runJob(c *client, body []byte) (service.JobStatus, time.Time, int, error) {
	var st service.JobStatus
	code, resp, err := c.do(http.MethodPost, "/v1/batch", body)
	if err != nil {
		return st, time.Time{}, 0, err
	}
	var acc service.BatchAccepted
	if code != http.StatusAccepted || json.Unmarshal(resp, &acc) != nil {
		return st, time.Time{}, 0, fmt.Errorf("POST /v1/batch: status %d", code)
	}
	for polls := 1; ; polls++ {
		time.Sleep(pollInterval)
		code, resp, err := c.do(http.MethodGet, acc.Status, nil)
		now := time.Now()
		if err != nil {
			return st, now, polls, err
		}
		if code != http.StatusOK {
			return st, now, polls, fmt.Errorf("GET %s: status %d", acc.Status, code)
		}
		st = service.JobStatus{}
		if err := json.Unmarshal(resp, &st); err != nil {
			return st, now, polls, err
		}
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateCancelled:
			return st, now, polls, nil
		}
	}
}

// refBatch identifies one job's specs in-process through the engine pool
// with block sessions, as the service's batch executor does.
func refBatch(m *model, specs []service.JobSpec, parallelism int, busy []time.Duration) []core.Identification {
	jobs := make([]engine.Job, len(specs))
	for i, s := range specs {
		jobs[i] = engine.Job{Server: specServer(s), Cond: specCond(s), Seed: s.Seed}
	}
	w := 0
	res := engine.IdentifyBatch[core.Identification](m.id, jobs, engine.BatchConfig[core.Identification]{
		Parallelism: parallelism,
		NewWorkerBlock: func() engine.BlockIdentifier[core.Identification] {
			tb := &timedBlock{bs: m.id.NewBlockSession(), busy: &busy[w]}
			w++
			return tb
		},
	})
	out := make([]core.Identification, len(res))
	for i, r := range res {
		out[i] = r.Out
	}
	return out
}

// timedBlock adds the time a pool worker spends in its block session to
// that worker's busy counter (each worker owns one counter).
type timedBlock struct {
	bs   *core.BlockSession
	busy *time.Duration
}

func (t *timedBlock) Gather(tag int, s *websim.Server, c netem.Condition, cfg probe.Config, rng *rand.Rand) {
	start := time.Now()
	t.bs.Gather(tag, s, c, cfg, rng)
	*t.busy += time.Since(start)
}

func (t *timedBlock) Buffered() int { return t.bs.Buffered() }

func (t *timedBlock) Flush(emit func(tag int, out core.Identification)) {
	start := time.Now()
	t.bs.Flush(emit)
	*t.busy += time.Since(start)
}

// check compares every finished job's results with engine.IdentifyBatch
// on the same specs; it also times that reference run for the engine
// layer's throughput and busy share.
func (w *batch) check(b *bench, m *model) (int, map[string]float64) {
	failed := 0
	busy := make([]time.Duration, b.conns)
	var wall time.Duration
	ids := 0
	for j, st := range w.done {
		if st.State != service.StateDone {
			continue // already counted
		}
		start := time.Now()
		refs := refBatch(m, w.specs[j], b.conns, busy)
		wall += time.Since(start)
		ids += len(refs)
		for i, ref := range refs {
			if outcomeOfResponse(&st.Results[i]) != outcomeOf(ref) || st.Results[i].Cached {
				failed++
				break
			}
		}
	}
	if failed > 0 {
		logf("batch: %d jobs differ from the in-process reference", failed)
	}
	var busySum time.Duration
	for _, d := range busy {
		busySum += d
	}
	layer := map[string]float64{}
	if wall > 0 {
		layer["engine.ids_per_s"] = float64(ids) / wall.Seconds()
		layer["engine.busy_share"] = busySum.Seconds() / (wall.Seconds() * float64(len(busy)))
	}
	return failed, layer
}

// replayBatch is how many finished jobs the traced run replays.
const replayBatch = 2

// replay splits a batch job across the layers on one goroutine: request
// decode, then per spec gather and feature extraction, block classify per
// 64 vectors (the engine's block size), and the results encode.
func (w *batch) replay(b *bench, m *model, rec *recorder, ph *phase) (map[string]float64, error) {
	var idx []int
	for j, st := range w.done {
		if st.State == service.StateDone && len(idx) < replayBatch {
			idx = append(idx, j)
		}
	}
	p := newPipeline(m)
	var rounds []float64
	samples := 0
	err := rec.passes(func() error {
		rounds, samples = rounds[:0], 0
		for k, j := range idx {
			var outs []core.Identification
			var err error
			rec.op(k, func() {
				var req service.BatchRequest
				rec.span("service.decode", func() { err = json.Unmarshal(w.body[j], &req) })
				outs = p.identifyBlock(rec, req.Jobs, &rounds, &samples)
				rec.span("service.encode", func() { err = encodeJob(outs) })
			})
			if err != nil {
				return err
			}
			for i, o := range outs {
				if outcomeOf(o) != outcomeOfResponse(&w.done[j].Results[i]) {
					return fmt.Errorf("replay of job %d spec %d diverges from the served result", j, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tot, _ := rec.selfTotals()
	layer := map[string]float64{
		"service.codec_us":          us(tot["service.decode"]+tot["service.encode"]) / float64(len(idx)),
		"service.job_polls_per_job": float64(ph.polls) / float64(ph.ops),
		"probe.gather_ms":           rec.medianUs("probe.gather") / 1000,
		"probe.rounds_per_gather":   median(rounds),
		"feature.extract_us":        rec.medianUs("feature.extract"),
		"feature.share_pct":         rec.share("feature.extract"),
		"forest.share_pct":          rec.share("forest.classify_batch"),
	}
	if samples > 0 {
		layer["forest.classify_batch_ns_per_sample"] = float64(tot["forest.classify_batch"].Nanoseconds()) / float64(samples)
	}
	// The scalar path on the same specs, for the core and forest layers'
	// per-call figures: Session.Identify per spec, then the forest's
	// scalar Classify on each vector it produced (root spans, outside the
	// batch operations).
	sess := m.id.NewSession()
	for i, s := range w.specs[idx[0]] {
		var id core.Identification
		rec.root("core.session_identify", i, func() {
			id = sess.Identify(specServer(s), specCond(s), probe.Config{}, xrand.New(s.Seed))
		})
		if id.Valid && id.Special == trace.SpecialNone {
			rec.root("forest.classify", i, func() { p.f.Classify(id.Vector[:]) })
		}
	}
	layer["core.identify_us"] = rec.medianUs("core.session_identify")
	layer["forest.classify_us"] = rec.medianUs("forest.classify")
	return layer, nil
}

// identifyBlock runs one job's specs through gather and feature
// extraction, classifying pending vectors a block of DefaultBlockSize at
// a time with the forest's batched kernel.
func (p *pipeline) identifyBlock(rec *recorder, specs []service.JobSpec, rounds *[]float64, samples *int) []core.Identification {
	outs := make([]core.Identification, len(specs))
	var pending []int
	flush := func() {
		if len(pending) == 0 {
			return
		}
		p.vecs = p.vecs[:0]
		for _, i := range pending {
			p.vecs = append(p.vecs, outs[i].Vector[:])
		}
		if len(p.labels) < len(pending) {
			p.labels = make([]string, engine.DefaultBlockSize)
			p.confs = make([]float64, engine.DefaultBlockSize)
		}
		rec.span("forest.classify_batch", func() {
			p.f.ClassifyBatchInto(&p.bsc, p.vecs, p.labels[:len(pending)], p.confs[:len(pending)])
		})
		for k, i := range pending {
			label(&outs[i], p.labels[k], p.confs[k])
		}
		*samples += len(pending)
		pending = pending[:0]
	}
	for i, s := range specs {
		var res *probe.Result
		rec.span("probe.gather", func() { res = p.gather(s) })
		*rounds = append(*rounds, float64(p.rounds))
		var need bool
		rec.span("feature.extract", func() { outs[i], need = p.prepare(res) })
		if need {
			pending = append(pending, i)
			if len(pending) == engine.DefaultBlockSize {
				flush()
			}
		}
	}
	flush()
	return outs
}

// encodeJob renders a finished job's status document as the handler does.
func encodeJob(outs []core.Identification) error {
	st := service.JobStatus{ID: "job-1", State: service.StateDone, Total: len(outs), Completed: len(outs)}
	for _, o := range outs {
		st.Results = append(st.Results, wireResponse(o))
	}
	enc := json.NewEncoder(discard{})
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}
