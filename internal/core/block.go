package core

import (
	"math/rand"
	"time"

	"repro/internal/classify"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/websim"
)

// BlockSession is the block-inference counterpart of Session: it probes
// jobs one at a time like Session.Identify but defers the model call,
// parking the gathered feature vectors until Flush classifies the whole
// block through the classifier's batched kernel (one forest sweep for up
// to 64 samples instead of 64 scalar tree walks). Backends without a
// batched entry point fall back to per-vector classification at Flush, so
// results are always identical to Session.Identify job for job --
// grouping into blocks never changes an outcome.
//
// A BlockSession is NOT safe for concurrent use; engine.IdentifyBatch
// hands one to each pool worker (see engine.BatchConfig.NewWorkerBlock)
// and flushes it whenever a block fills or the worker runs out of jobs.
type BlockSession struct {
	id    *Identifier
	batch classify.BatchClassifier // nil: scalar fallback at Flush
	p     *probe.Prober
	sc    feature.Scratch

	tags    []int
	outs    []Identification
	pending []int32 // indices into outs that still need a classification
	vecs    [][]float64
	labels  []string
	confs   []float64

	// record/tel mirror Session's span recording (see EnableTimings). A
	// deferred sample's classify span is its share of the block's one
	// batched call, stamped at Flush.
	record bool
	tel    *telemetry.Pipeline

	// flight/trace mirror Session.BindTrace: gather/feature spans are
	// recorded per job at Gather (tagged with the job tag), deferred
	// classify shares at Flush, plus an UNSURE event per unsure outcome.
	flight *telemetry.Flight
	trace  telemetry.TraceID
}

// NewBlockSession returns a reusable block-inference pipeline bound to
// this identifier's classifier. Buffers are sized for one default block
// up front so a session filled to engine.DefaultBlockSize never
// reallocates mid-batch (larger blocks still grow transparently).
func (id *Identifier) NewBlockSession() *BlockSession {
	bc, _ := id.model.(classify.BatchClassifier)
	bs := &BlockSession{
		id:    id,
		batch: bc,
		tags:  make([]int, 0, engine.DefaultBlockSize),
		outs:  make([]Identification, 0, engine.DefaultBlockSize),
	}
	if bc != nil {
		bs.pending = make([]int32, 0, engine.DefaultBlockSize)
		bs.vecs = make([][]float64, 0, engine.DefaultBlockSize)
		bs.labels = make([]string, engine.DefaultBlockSize)
		bs.confs = make([]float64, engine.DefaultBlockSize)
	}
	return bs
}

// EnableTimings turns on per-stage span recording, exactly as
// Session.EnableTimings does for the scalar path: every emitted
// Identification carries its gather / feature / classify spans in Timings,
// and tel (when non-nil) aggregates them at Flush. A sample classified in
// the block's batched call is charged an equal share of that one call.
func (bs *BlockSession) EnableTimings(tel *telemetry.Pipeline) {
	bs.record = true
	bs.tel = tel
}

// BindTrace attaches subsequent Gather/Flush span recording to a trace
// in f's rings (see Session.BindTrace). Batch jobs bind the accepting
// request's trace, so one ID correlates the HTTP submission with every
// worker's per-job spans.
func (bs *BlockSession) BindTrace(f *telemetry.Flight, tr telemetry.TraceID) {
	bs.flight = f
	bs.trace = tr
}

// Gather probes one server exactly as Session.Identify would -- same
// prober reuse, same RNG stream -- and buffers the prepared outcome under
// tag. Classification is deferred to Flush only when the backend has a
// batched kernel; for scalar-only backends deferral buys nothing, so the
// model runs right here and the session keeps Session.Identify's per-job
// timing (a gathered job is a finished job). Outcomes that need no model
// call (invalid traces, special shapes) are buffered as-is; Flush emits
// every gathered job in gather order either way.
func (bs *BlockSession) Gather(tag int, server *websim.Server, cond netem.Condition, cfg probe.Config, rng *rand.Rand) {
	if bs.p == nil {
		bs.p = probe.New(cfg, cond, rng)
		bs.p.Reuse()
	} else {
		bs.p.Rearm(cfg, cond, rng)
	}
	var clock telemetry.SpanClock
	var tm telemetry.StageTimings
	var gstart time.Time
	if bs.record {
		gstart = time.Now()
		clock.StartAt(gstart)
	}
	res := bs.p.Gather(server)
	clock.Lap(&tm, telemetry.StageGather)
	out, need := prepareResult(res, &bs.sc)
	clock.Lap(&tm, telemetry.StageFeature)
	if need {
		if bs.batch == nil {
			label, conf := bs.id.model.Classify(out.Vector[:])
			applyLabel(&out, label, conf)
			clock.Lap(&tm, telemetry.StageClassify)
		} else {
			bs.pending = append(bs.pending, int32(len(bs.outs)))
		}
	}
	out.Timings = tm
	if bs.record && bs.flight != nil && bs.trace != 0 {
		// Deferred jobs record gather+feature now (classify is still 0);
		// their classify share is recorded at Flush under the same tag.
		bs.flight.StageSpans(bs.trace, gstart, &out.Timings, uint64(tag)&0xffffffff)
	}
	bs.tags = append(bs.tags, tag)
	bs.outs = append(bs.outs, out)
}

// Buffered reports how many gathered jobs await Flush.
func (bs *BlockSession) Buffered() int { return len(bs.outs) }

// Flush classifies every pending vector in one batched model call,
// finishes the buffered identifications with the Unsure rule, and emits
// each (tag, Identification) in gather order, leaving the session empty.
func (bs *BlockSession) Flush(emit func(tag int, out Identification)) {
	if len(bs.pending) > 0 {
		bs.vecs = bs.vecs[:0]
		for _, k := range bs.pending {
			bs.vecs = append(bs.vecs, bs.outs[k].Vector[:])
		}
		n := len(bs.pending)
		if cap(bs.labels) < n {
			bs.labels = make([]string, n)
			bs.confs = make([]float64, n)
		}
		labels, confs := bs.labels[:n], bs.confs[:n]
		var start time.Time
		if bs.record {
			start = time.Now()
		}
		bs.batch.ClassifyBatch(bs.vecs, labels, confs)
		var share time.Duration
		if bs.record {
			share = time.Since(start) / time.Duration(n)
		}
		for i, k := range bs.pending {
			applyLabel(&bs.outs[k], labels[i], confs[i])
			bs.outs[k].Timings[telemetry.StageClassify] = share
			if bs.record && bs.flight != nil && bs.trace != 0 {
				bs.flight.Span(bs.trace, telemetry.StageClassify, start, share, uint64(bs.tags[k])&0xffffffff)
			}
		}
	}
	for i := range bs.outs {
		if bs.tel != nil {
			bs.tel.ObserveTimings(&bs.outs[i].Timings)
		}
		if bs.record && bs.flight != nil && bs.trace != 0 && bs.outs[i].Label == LabelUnsure {
			bs.flight.Event(bs.trace, telemetry.EventUnsure, uint64(bs.outs[i].Confidence*1000))
		}
		emit(bs.tags[i], bs.outs[i])
	}
	bs.tags = bs.tags[:0]
	bs.outs = bs.outs[:0]
	bs.pending = bs.pending[:0]
}
