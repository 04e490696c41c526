package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/telemetry"
)

// Job states reported by GET /v1/jobs/{id}.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one accepted async unit of work -- a probe batch (specs), a
// pcap capture's flow pairs (pcap), or a sharded census (census) -- with
// its mutable progress and a cancel handle. The executor writes results
// as probes or classifications complete; status polls read a consistent
// snapshot under mu.
type job struct {
	id    string
	model string
	specs []JobSpec
	// pcap carries a capture job's classified flow pairs, and version
	// the model version that classified them; nil for probe batches. The
	// worker dispatches on pcap.
	pcap    []flow.FlowIdentification
	version string
	// census carries a census job's request and live coordinator; nil
	// otherwise. Census jobs report progress through the coordinator
	// instead of per-slot results.
	census *censusState
	// total is the number of result slots (len(specs) or len(pcap)), or
	// the population size for a census job.
	total int
	// enqueuedAt stamps queue admission; the worker observes the
	// dequeue-to-start delta as the job-level queue_wait span.
	enqueuedAt time.Time
	// reqID/trace carry the accepting request's correlation identity:
	// the job's spans are recorded under trace, the job payload echoes
	// reqID, and job completion re-finishes the trace so the retained
	// span tree covers the async work, not just the 202 acceptance.
	reqID string
	trace telemetry.TraceID

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	completed int
	cacheHits int
	unsure    int // UNSURE/invalid results, for the trace's outcome class
	errMsg    string
	results   []IdentifyResponse
}

// complete records the result for spec index i.
func (j *job) complete(i int, resp IdentifyResponse, fromCache bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results[i] = resp
	j.completed++
	if fromCache {
		j.cacheHits++
	}
	if !resp.Valid || resp.Label == core.LabelUnsure {
		j.unsure++
	}
}

// requestCancel cancels the job's context and, when the job has not
// started yet, flips it to cancelled immediately so DELETE responses and
// status polls reflect the cancellation without waiting for a worker to
// pop it (the worker still retires it when it drains to it). A running
// job stays "running" until its in-flight probes wind down.
func (j *job) requestCancel() {
	j.cancel()
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
	}
	j.mu.Unlock()
}

// tryStart atomically transitions queued -> running. It refuses when the
// job already left the queued state (a racing requestCancel), so a
// client-visible terminal "cancelled" can never regress to "running".
func (j *job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

func (j *job) fail(msg string) {
	j.mu.Lock()
	j.state = StateFailed
	if j.ctx.Err() != nil {
		j.state = StateCancelled
	}
	j.errMsg = msg
	j.mu.Unlock()
}

func (j *job) finish() {
	j.mu.Lock()
	j.state = StateDone
	j.mu.Unlock()
}

// status snapshots the job for GET /v1/jobs/{id}. Results are included
// only once the job is done, so pollers see either progress counters or
// the complete result set, never a torn mixture.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		RequestID: j.reqID,
		TraceID:   j.trace.String(),
		Total:     j.total,
		Completed: j.completed,
		CacheHits: j.cacheHits,
		Error:     j.errMsg,
	}
	if j.trace == 0 {
		st.TraceID = ""
	}
	if j.state == StateDone {
		st.Results = append([]IdentifyResponse(nil), j.results...)
	}
	if j.census != nil {
		// Census progress lives in the coordinator, not the per-slot
		// counters; the augment also attaches the (partial) Table IV.
		j.census.augment(&st)
	}
	return st
}

// submit validates req, enqueues it, and returns the accepted job. A full
// queue returns errQueueFull so the handler can answer 503. ctx carries
// the accepting request's trace identity into the job.
func (s *Service) submit(ctx context.Context, req BatchRequest) (*job, error) {
	if err := s.validateBatch(req); err != nil {
		s.metrics.batchRejected.Add(1)
		return nil, err
	}
	return s.enqueue(ctx, &job{
		model: req.Model,
		specs: req.Jobs,
		total: len(req.Jobs),
	})
}

// enqueue registers a freshly built job (specs or pcap payload set) and
// pushes it into the bounded queue. It finishes initializing the job:
// context, state, ID, the result slots, and the correlation identity
// from the accepting request's ctx (the job's own lifetime context stays
// rooted in the service, not the soon-to-close HTTP request).
func (s *Service) enqueue(ctx context.Context, j *job) (*job, error) {
	j.reqID = requestIDFrom(ctx)
	j.trace = traceIDFrom(ctx)
	j.ctx, j.cancel = context.WithCancel(s.ctx)
	j.state = StateQueued
	if j.census == nil {
		// Census jobs keep their outcomes in the coordinator; allocating
		// a population-sized response slice here would only pin memory.
		j.results = make([]IdentifyResponse, j.total)
	}
	s.jobMu.Lock()
	s.nextJob++
	j.id = fmt.Sprintf("job-%d", s.nextJob)
	s.jobs[j.id] = j
	s.jobMu.Unlock()

	reject := func(err error) (*job, error) {
		s.jobMu.Lock()
		delete(s.jobs, j.id)
		s.jobMu.Unlock()
		j.cancel()
		s.metrics.batchRejected.Add(1)
		return nil, err
	}
	// The enqueue happens under closeMu's read lock: once Close has taken
	// the write lock and flipped closed, no job can slip into the buffered
	// queue after the workers drained it, which would strand it in
	// "queued" forever.
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return reject(errShuttingDown)
	}
	j.enqueuedAt = time.Now()
	depth := int64(len(s.queue)) + 1 // this job included
	select {
	case s.queue <- j:
		s.metrics.batchAccepted.Add(1)
		// depth was sampled before the send: it counts this job exactly
		// once even when a worker drains it before we could observe it --
		// the job was queued, however briefly.
		s.metrics.queueHighWater.SetMax(depth)
		return j, nil
	default:
		return reject(errQueueFull)
	}
}

// errQueueFull and errShuttingDown mark rejected submissions. A full
// queue is transient back-pressure, answered 429 with a Retry-After so
// well-behaved clients pace themselves; shutdown is terminal and answers
// 503.
var (
	errQueueFull    = fmt.Errorf("service: job queue is full, retry later")
	errShuttingDown = fmt.Errorf("service: shutting down, not accepting jobs")
)

// lookupJob resolves a job ID for status polls and cancellation.
func (s *Service) lookupJob(id string) (*job, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// finishJobTrace re-finishes the job's trace at job completion, so the
// tail sampler re-evaluates the whole async lifetime: a batch whose
// results came back UNSURE (or that failed) is retained even though its
// 202 acceptance looked perfectly normal. The retained store replaces by
// ID, so this fuller scan wins over the acceptance-time one.
func (s *Service) finishJobTrace(j *job) {
	if j.trace == 0 {
		return
	}
	j.mu.Lock()
	state, unsure := j.state, j.unsure
	j.mu.Unlock()
	outcome := telemetry.OutcomeOK
	switch {
	case state == StateFailed || state == StateCancelled:
		outcome = telemetry.OutcomeError
	case unsure > 0:
		outcome = telemetry.OutcomeUnsure
	}
	route := "job:batch"
	switch {
	case j.census != nil:
		route = "job:census"
	case j.pcap != nil:
		route = "job:pcap"
	}
	start := j.enqueuedAt
	if start.IsZero() {
		start = time.Now()
	}
	s.flight.Finish(telemetry.TraceDone{
		ID:        j.trace,
		RequestID: j.reqID,
		Route:     route,
		Outcome:   outcome,
		Start:     start,
		Duration:  time.Since(start),
	})
}

// retire records that j reached a terminal state and enforces the
// finished-job retention cap: the oldest finished jobs are dropped from
// the store (their IDs then answer 404) so a resident server's memory
// stays bounded under steady batch traffic.
func (s *Service) retire(j *job) {
	s.finishJobTrace(j)
	// Release the job's context registration on the service root context;
	// without this every completed job would leak a cancelCtx node for
	// the life of the process.
	j.cancel()
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.JobRetention {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.metrics.finishedRetained.Set(int64(len(s.finished)))
}

// worker drains the batch queue until the service closes: the bounded
// consumer side of POST /v1/batch.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			s.drainQueue()
			return
		case j := <-s.queue:
			if j.ctx.Err() != nil || !j.tryStart() {
				j.fail("cancelled before start")
				s.metrics.jobsFailed.Add(1)
				s.retire(j)
				continue
			}
			wait := time.Since(j.enqueuedAt)
			s.metrics.pipeline.Observe(telemetry.StageQueueWait, wait)
			s.flight.Span(j.trace, telemetry.StageQueueWait, j.enqueuedAt, wait, 0)
			s.metrics.workersBusy.Add(1)
			switch {
			case j.census != nil:
				s.runCensus(j)
			case j.pcap != nil:
				s.runPcap(j)
			default:
				s.runBatch(j)
			}
			s.metrics.workersBusy.Add(-1)
			s.retire(j)
		}
	}
}

// drainQueue marks still-queued jobs failed during shutdown so pollers
// are not left waiting on jobs that will never run.
func (s *Service) drainQueue() {
	for {
		select {
		case j := <-s.queue:
			j.fail("service shut down before the job ran")
			s.metrics.jobsFailed.Add(1)
			s.retire(j)
		default:
			return
		}
	}
}
