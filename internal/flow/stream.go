// Streaming passive identification: an unbounded capture byte stream
// goes in one end, per-flow classifications come out the other as flows
// close, with every stage bounded. The pipeline is
//
//	Write -> pcap.Ring -> framer -> [shard workers] -> funnel -> emitter
//
// The framer reads raw records off the ring (pcap.Reader.NextRaw),
// sniffs each frame's address-pair hash (pcap.TupleSniff) and batches
// the raw bytes onto the owning shard's channel; a shard worker runs the
// full frame decode and its own online-mode Tracker. The hash ignores
// direction and ports, so every flow of a (client IP, server) group
// lands on one shard, and an identify stream pairs and classifies on
// the shard itself (see pairer). Finished flows or classified pairs
// funnel into one channel that a single emitter goroutine drains, so
// the caller's sink never needs locks. Every channel and buffer is
// bounded, so a slow consumer stalls the producer (HTTP body, stdin)
// instead of growing memory. A shard starts with its first packet, so a
// capture between few hosts pays for few shards.
package flow

import (
	"context"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/telemetry"
)

// StreamConfig tunes a Stream. The zero value selects the defaults.
type StreamConfig struct {
	// Tracker bounds flow reassembly. MaxFlows and MaxEmitted are bounds
	// across the whole pipeline (split evenly over shards); MaxEmitted
	// defaults to unlimited in streaming mode, where emitted flows are
	// handed off instead of accumulating.
	Tracker Config
	// Shards is the number of parallel decode+track workers (default:
	// GOMAXPROCS, capped at 16).
	Shards int
	// RingBytes bounds the ingest ring buffer between the producer and
	// the framer (default 1 MiB).
	RingBytes int
	// BatchPackets is how many raw packets the framer groups per shard
	// handoff (default 128).
	BatchPackets int
	// Metrics, when non-nil, publishes live pipeline state.
	Metrics *StreamMetrics
	// Trace/TraceID, when both set, record a shard-assignment event into
	// the flight recorder each time a shard worker emits a finished flow
	// or classified pair (arg: shard index), so a stream request's span
	// tree shows which shards produced its results.
	Trace   *telemetry.Flight
	TraceID telemetry.TraceID
}

// StreamMetrics is the caai_stream_* instrument set. All fields are
// optional; several concurrent streams may share one StreamMetrics (the
// gauges then aggregate across streams).
type StreamMetrics struct {
	// Tracker carries the live-flow gauge, its high water, and the
	// epoch/expiry counters, shared by every shard tracker.
	Tracker TrackerMetrics
	// Bytes counts capture bytes accepted by Write.
	Bytes *telemetry.Counter
	// Packets counts capture records framed.
	Packets *telemetry.Counter
	// Flows counts flows emitted (expired, evicted, or drained).
	Flows *telemetry.Counter
	// RingHighWater tracks the fullest the ingest ring has been.
	RingHighWater *telemetry.Gauge
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > 16 {
		c.Shards = 16
	}
	if c.RingBytes <= 0 {
		c.RingBytes = 1 << 20
	}
	if c.BatchPackets <= 0 {
		c.BatchPackets = 128
	}
	if c.Tracker.MaxEmitted == 0 {
		c.Tracker.MaxEmitted = -1
	}
	return c
}

// batchesPerShard is the fixed set of raw batches a shard recycles
// between the framer and its worker. Eight keep a shard's queue deep
// enough to ride out the uneven load address-pair routing gives: with
// four, the 28-server e2e capture streamed ~10% slower on 2 cores.
const batchesPerShard = 8

// rawMeta is one framed packet's record metadata; the frame bytes live
// in the owning batch's buf.
type rawMeta struct {
	time     time.Time
	linkType uint32
	capLen   int32
	origLen  int32
	off, end int32
}

// rawBatch is one framer-to-shard handoff. A shard's batches are
// allocated together when it starts and recycle through its free list,
// so a running stream stops allocating.
type rawBatch struct {
	buf  []byte
	meta []rawMeta
}

func (b *rawBatch) reset() { b.buf = b.buf[:0]; b.meta = b.meta[:0] }

// shardState is one worker's private pipeline state. in is nil until
// the shard's first packet starts it.
type shardState struct {
	in      chan *rawBatch
	free    chan *rawBatch
	pending *rawBatch // framer-side batch being filled
	tracker *Tracker
	tcp     int64
	skipped int64
	trunc   int64
}

// Stream is a running streaming-identification pipeline. Feed capture
// bytes with Write (any chunking), then Close to drain; flows arrive at
// the sink passed to NewStream as they close. Write/Close may run on a
// different goroutine than the one that built the Stream. Abort tears
// the pipeline down early.
type Stream struct {
	cfg  StreamConfig
	tcfg Config // one shard tracker's bounds
	ring *pcap.Ring
	emit func(FlowIdentification)
	// id, when set, makes every shard pair and classify its own flows,
	// holding back at most maxPending of them (see pairer).
	id         *core.Identifier
	maxPending int

	ctx     context.Context
	cancel  context.CancelFunc
	shards  []shardState
	workers sync.WaitGroup
	funnel  chan FlowIdentification
	done    chan struct{}

	err   error        // pipeline error, valid after done
	stats CaptureStats // valid after done
}

// NewStream starts a streaming pipeline. Every finished flow is handed
// to onFlow serially, in close order, from one emitter goroutine; the
// FlowTrace is owned by the callback. Cancelling ctx aborts the
// pipeline. Callers must call Close (or Abort) exactly once.
func NewStream(ctx context.Context, cfg StreamConfig, onFlow func(*FlowTrace)) *Stream {
	return newStream(ctx, cfg, nil, 0, func(fi FlowIdentification) { onFlow(fi.A) })
}

func newStream(ctx context.Context, cfg StreamConfig, model classify.Classifier, maxPending int, emit func(FlowIdentification)) *Stream {
	cfg = cfg.withDefaults()
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		cfg:    cfg,
		tcfg:   cfg.Tracker.withDefaults(),
		ring:   pcap.NewRing(cfg.RingBytes),
		emit:   emit,
		ctx:    sctx,
		cancel: cancel,
		shards: make([]shardState, cfg.Shards),
		// A few batches' worth of results, so a shard finishing a burst
		// of flows rarely waits on the emitter.
		funnel: make(chan FlowIdentification, 64),
		done:   make(chan struct{}),
	}
	s.tcfg.MaxFlows = max(s.tcfg.MaxFlows/cfg.Shards, 16)
	if s.tcfg.MaxEmitted > 0 {
		s.tcfg.MaxEmitted = max(s.tcfg.MaxEmitted/cfg.Shards, 1)
	}
	if model != nil {
		s.id = core.NewIdentifier(model)
		s.maxPending = max(maxPending/cfg.Shards, 16)
	}
	go s.run()
	// Unblock the pipeline promptly when ctx is cancelled from outside.
	go func() {
		select {
		case <-sctx.Done():
			s.ring.CloseWithError(context.Cause(sctx))
		case <-s.done:
		}
	}()
	return s
}

// Write feeds capture bytes into the pipeline, blocking when the ring
// is full until the decoder catches up (end-to-end backpressure).
func (s *Stream) Write(p []byte) (int, error) {
	n, err := s.ring.Write(p)
	if m := s.cfg.Metrics; m != nil && m.Bytes != nil {
		m.Bytes.Add(int64(n))
	}
	return n, err
}

// Close ends the input, waits for the pipeline to drain (every
// remaining flow is emitted), and returns the first pipeline error.
func (s *Stream) Close() error {
	s.ring.Close()
	<-s.done
	s.cancel()
	return s.err
}

// Abort tears the pipeline down without draining: blocked producers and
// consumers unwind, remaining flows are dropped. Safe to call after
// Close; safe to call concurrently with Write.
func (s *Stream) Abort(err error) {
	if err == nil {
		err = context.Canceled
	}
	s.ring.CloseWithError(err)
	s.cancel()
	<-s.done
}

// Stats reports the merged pipeline counters. Valid after Close/Abort.
func (s *Stream) Stats() CaptureStats { return s.stats }

// run is the pipeline body: it owns the framer loop and supervises the
// shard workers and the emitter.
func (s *Stream) run() {
	defer close(s.done)
	defer s.ring.CloseWithError(io.ErrClosedPipe) // unblock any writer on early exit

	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		for fi := range s.funnel {
			s.count(fi.A)
			s.count(fi.B)
			s.emit(fi)
		}
	}()

	rd, derr := pcap.NewReader(s.ring)
	if derr == nil {
		derr = s.frame(rd)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.in == nil {
			continue
		}
		if sh.pending != nil {
			s.dispatch(sh)
		}
		close(sh.in)
	}
	s.workers.Wait()
	close(s.funnel)
	<-emitted

	// Merge the per-stage counters into one CaptureStats.
	if rd != nil {
		s.stats.Packets = rd.Stats().Packets
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.tracker == nil {
			continue
		}
		s.stats.TCPSegments += sh.tcp
		s.stats.SkippedPackets += sh.skipped
		s.stats.TruncatedPackets += sh.trunc
		ts := sh.tracker.Stats()
		s.stats.Flows += ts.Flows
		s.stats.EvictedFlows += ts.Evicted
		s.stats.DroppedFlows += ts.Dropped
		s.stats.TruncatedFlows += ts.Truncated
	}
	switch {
	case derr != nil && derr != io.EOF:
		s.err = derr
	case s.ctx.Err() != nil:
		s.err = s.ctx.Err()
	}
}

// count tallies one emitted flow on the emitter goroutine.
func (s *Stream) count(f *FlowTrace) {
	if f == nil {
		return
	}
	if m := s.cfg.Metrics; m != nil && m.Flows != nil {
		m.Flows.Add(1)
	}
	if f.Trace != nil && f.Trace.Valid() {
		s.stats.Classifiable++
	}
}

// frame is the framer loop: raw records off the reader, address-pair
// shard selection, batched handoff. Frames with no sniffable TCP tuple
// round-robin (they decode to skip/truncated on whatever shard).
func (s *Stream) frame(rd *pcap.Reader) error {
	var rec pcap.RawRecord
	var rr uint64
	nshards := uint64(len(s.shards))
	countdown := 0
	for {
		if err := rd.NextRaw(&rec); err != nil {
			return err
		}
		h, span, ok := pcap.TupleSniff(rec.LinkType, rec.Data)
		data := rec.Data
		if !ok {
			h = rr
			rr++
		} else if span < len(data) {
			// Workers decode headers only; the payload length rides in the
			// IP header, so snapping the copy at the sniffed header span
			// changes nothing downstream (TestStreamMatchesOffline).
			data = data[:span]
		}
		idx := int(h % nshards)
		sh := &s.shards[idx]
		if sh.in == nil {
			s.startShard(idx)
		}
		b := sh.pending
		if b == nil {
			if b = s.grab(sh); b == nil {
				return s.ctx.Err()
			}
			sh.pending = b
		}
		off := len(b.buf)
		b.buf = append(b.buf, data...)
		b.meta = append(b.meta, rawMeta{
			time:     rec.Time,
			linkType: rec.LinkType,
			capLen:   int32(rec.CapturedLen),
			origLen:  int32(rec.OrigLen),
			off:      int32(off),
			end:      int32(len(b.buf)),
		})
		if len(b.meta) >= s.cfg.BatchPackets || len(b.buf) >= 256<<10 {
			s.dispatch(sh)
		}
		if m := s.cfg.Metrics; m != nil {
			if m.Packets != nil {
				m.Packets.Add(1)
			}
			if countdown--; countdown <= 0 {
				countdown = 4096
				if m.RingHighWater != nil {
					m.RingHighWater.SetMax(int64(s.ring.HighWater()))
				}
			}
		}
	}
}

// startShard builds shard idx's batches, tracker (and pairer) and
// starts its worker. It runs on the framer goroutine when the shard's
// first packet arrives.
func (s *Stream) startShard(idx int) {
	sh := &s.shards[idx]
	sh.in = make(chan *rawBatch, batchesPerShard)
	sh.free = make(chan *rawBatch, batchesPerShard)
	batches := make([]rawBatch, batchesPerShard)
	n, c := s.cfg.BatchPackets, 128*s.cfg.BatchPackets
	buf := make([]byte, batchesPerShard*c)
	meta := make([]rawMeta, batchesPerShard*n)
	for i := range batches {
		batches[i] = rawBatch{buf: buf[i*c : i*c : (i+1)*c], meta: meta[i*n : i*n : (i+1)*n]}
		sh.free <- &batches[i]
	}
	sh.tracker = NewTracker(s.tcfg)
	if m := s.cfg.Metrics; m != nil {
		sh.tracker.Instrument(&m.Tracker)
	}
	if s.id != nil {
		sh.tracker.pairs = &pairer{sess: s.id.NewSession(), hosts: map[hostPair]*hostFlows{},
			max: s.maxPending, s: s, shard: idx}
	} else {
		sh.tracker.Stream(func(ft *FlowTrace) { s.send(idx, FlowIdentification{A: ft}) })
	}
	s.workers.Add(1)
	go s.shardLoop(sh)
}

// send hands one result from shard idx to the emitter.
func (s *Stream) send(idx int, fi FlowIdentification) {
	s.cfg.Trace.Event(s.cfg.TraceID, telemetry.EventShardAssign, uint64(idx))
	select {
	case s.funnel <- fi:
	case <-s.ctx.Done():
	}
}

// grab takes the shard's next free batch, waiting while the worker
// holds all of them (backpressure toward the producer). It returns nil
// when the stream is cancelled.
func (s *Stream) grab(sh *shardState) *rawBatch {
	select {
	case b := <-sh.free:
		b.reset()
		return b
	case <-s.ctx.Done():
		return nil
	}
}

// dispatch hands the shard's pending batch to its worker. The in
// channel holds every batch the shard owns, so this never waits.
func (s *Stream) dispatch(sh *shardState) {
	sh.in <- sh.pending
	sh.pending = nil
}

// shardLoop is one worker: full frame decode plus online flow tracking
// (and, in an identify stream, pairing and classification) for every
// packet whose address pair hashes here.
func (s *Stream) shardLoop(sh *shardState) {
	defer s.workers.Done()
	var pkt pcap.Packet
	for b := range sh.in {
		for i := range b.meta {
			m := &b.meta[i]
			pkt.Time = m.time
			pkt.CapturedLen = int(m.capLen)
			pkt.OrigLen = int(m.origLen)
			switch pcap.ParseFrame(m.linkType, b.buf[m.off:m.end], &pkt) {
			case pcap.FrameTCP:
				sh.tcp++
				sh.tracker.Observe(&pkt)
			case pcap.FrameTruncated:
				sh.trunc++
			default:
				sh.skipped++
			}
		}
		sh.free <- b
	}
	// End of input: drain this shard's remaining flows to the sink.
	sh.tracker.Finish()
}

// IdentifyStreamOptions tunes NewIdentifyStream and IdentifyCapture.
type IdentifyStreamOptions struct {
	// Stream tunes the underlying pipeline.
	Stream StreamConfig
	// MaxPending bounds the finished flows the pipeline holds back from
	// classification, split evenly over shards: flows waiting for an
	// environment-B companion, or for an earlier-started flow between
	// the same hosts to close. Beyond it the address pair holding the
	// oldest waiting flow classifies everything it holds, unpaired where
	// the companion has not closed yet (default 1024).
	MaxPending int
}

// IdentifyStream is a Stream whose flows are paired and classified as
// they close: the streaming form of IdentifyCapture.
type IdentifyStream struct {
	*Stream
}

// NewIdentifyStream starts a streaming pipeline that pairs flows by
// (client IP, server) exactly as Pair does and classifies each pair with
// model on the shard that tracked it. onResult runs serially on the
// emitter goroutine; it owns the FlowIdentification. A valid timed-out
// flow waits for its group's next flow to close (or the stream to end),
// like the active prober's environment A then environment B; a finished
// flow waits for every earlier-started flow between the same two hosts,
// so each group pairs in flow-start order whatever order its flows
// close in. Every result carries its feature and classify spans in
// ID.Timings.
func NewIdentifyStream(ctx context.Context, model classify.Classifier, opts IdentifyStreamOptions, onResult func(FlowIdentification)) *IdentifyStream {
	if opts.MaxPending <= 0 {
		opts.MaxPending = 1024
	}
	return &IdentifyStream{newStream(ctx, opts.Stream, model, opts.MaxPending, onResult)}
}

// hostPair is a flow's unordered address pair -- what the framer routes
// on -- so every flow of one (client IP, server) group shares it. A
// live flow's client and server roles are only fixed when it closes,
// but its address pair is known from its first packet.
type hostPair struct{ a, b [16]byte }

// hostFlows is one address pair's pairing state on a shard.
type hostFlows struct {
	live   []*state     // flows the tracker still holds
	closed []*FlowTrace // finished flows waiting on a live one, in capture order
	held   []*FlowTrace // valid flows waiting for their group's next flow
}

// pairer is a shard tracker's online form of Pair. It hears of every
// flow the tracker opens and finishes, releases each address pair's
// finished flows in capture order once no flow that started no later is
// still live, applies Pair's rule to them (a valid flow pairs with its
// group's next flow), and classifies every pair on the shard's session.
// It runs on the shard worker: no locks.
type pairer struct {
	sess    *core.Session
	hosts   map[hostPair]*hostFlows
	waiting int // flows in closed or held across hosts
	max     int
	s       *Stream // results go to s.send from this shard
	shard   int
}

func hostPairOf(k flowKey) hostPair { return hostPair{k.a.ip, k.b.ip} }

// opened records a flow the tracker just started.
func (p *pairer) opened(s *state) {
	hp := hostPairOf(s.key)
	h := p.hosts[hp]
	if h == nil {
		h = &hostFlows{}
		p.hosts[hp] = h
	}
	h.live = append(h.live, s)
}

// closed takes a flow the tracker just finished; ft is nil when the
// tracker dropped it (MaxEmitted).
func (p *pairer) closed(s *state, ft *FlowTrace) {
	hp := hostPairOf(s.key)
	h := p.hosts[hp]
	h.live = slices.DeleteFunc(h.live, func(l *state) bool { return l == s })
	if ft != nil {
		i, _ := slices.BinarySearchFunc(h.closed, ft, flowCmp)
		h.closed = slices.Insert(h.closed, i, ft)
		p.waiting++
	}
	p.release(h, false)
	if len(h.live)+len(h.closed)+len(h.held) == 0 {
		delete(p.hosts, hp)
	}
	for p.waiting > p.max {
		p.drain(p.oldest())
	}
}

// release pairs h's finished flows in capture order, stopping at the
// first one that a live flow started no later than; force ignores live
// flows.
func (p *pairer) release(h *hostFlows, force bool) {
	for len(h.closed) > 0 {
		f := h.closed[0]
		if !force && slices.ContainsFunc(h.live, func(l *state) bool { return !l.first.After(f.Start) }) {
			return
		}
		h.closed = slices.Delete(h.closed, 0, 1)
		p.waiting--
		p.pair(h, f)
	}
}

// pair applies Pair's rule to the group's next flow in capture order.
func (p *pairer) pair(h *hostFlows, f *FlowTrace) {
	i := slices.IndexFunc(h.held, func(a *FlowTrace) bool { return a.ClientIP == f.ClientIP && a.Server == f.Server })
	switch {
	case i >= 0:
		a := h.held[i]
		h.held = slices.Delete(h.held, i, i+1)
		p.waiting--
		p.classify(a, f)
	case f.Trace != nil && f.Trace.Valid():
		h.held = append(h.held, f)
		p.waiting++
	default:
		p.classify(f, nil)
	}
}

// drain classifies everything h holds back -- its finished flows in
// capture order, then its held flows unpaired -- and forgets h unless
// flows of it are still live.
func (p *pairer) drain(hp hostPair, h *hostFlows) {
	p.release(h, true)
	for _, a := range h.held {
		p.waiting--
		p.classify(a, nil)
	}
	h.held = nil
	if len(h.live) == 0 {
		delete(p.hosts, hp)
	}
}

// oldest finds the address pair holding the longest-waiting flow.
func (p *pairer) oldest() (hostPair, *hostFlows) {
	var key hostPair
	var old *hostFlows
	var at time.Time
	for hp, h := range p.hosts {
		for _, fs := range [][]*FlowTrace{h.closed, h.held} {
			if len(fs) > 0 && (old == nil || fs[0].Start.Before(at)) {
				key, old, at = hp, h, fs[0].Start
			}
		}
	}
	return key, old
}

// flush drains every address pair at end of input.
func (p *pairer) flush() {
	for hp, h := range p.hosts {
		p.drain(hp, h)
	}
}

// classify identifies the pair (a, b) (b nil when unpaired) and sends
// the result to the emitter.
func (p *pairer) classify(a, b *FlowTrace) {
	fi := FlowIdentification{A: a, B: b}
	fi.ID = p.sess.IdentifyResult(pairResult(&fi))
	fi.ID.Elapsed = a.End.Sub(a.Start)
	if b != nil {
		fi.ID.Elapsed += b.End.Sub(b.Start)
	}
	p.s.send(p.shard, fi)
}
