package flow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// CaptureStats summarizes one ingested capture for callers and the
// service's /metrics ingest counters.
type CaptureStats struct {
	// Packets, TCPSegments, SkippedPackets, TruncatedPackets mirror the
	// decoder's counters.
	Packets          int64 `json:"packets"`
	TCPSegments      int64 `json:"tcp_segments"`
	SkippedPackets   int64 `json:"skipped_packets"`
	TruncatedPackets int64 `json:"truncated_packets"`
	// Flows is every distinct 4-tuple; Classifiable counts flows whose
	// reconstructed trace is a valid CAAI trace.
	Flows        int64 `json:"flows"`
	Classifiable int64 `json:"classifiable"`
	// EvictedFlows/DroppedFlows/TruncatedFlows are the tracker's bound
	// enforcement counters.
	EvictedFlows   int64 `json:"evicted_flows,omitempty"`
	DroppedFlows   int64 `json:"dropped_flows,omitempty"`
	TruncatedFlows int64 `json:"truncated_flows,omitempty"`
}

// FlowIdentification is the classification of one flow pair: the
// environment-A flow, its optional environment-B companion, and the
// pipeline's identification.
type FlowIdentification struct {
	// A is the primary (timed-out) flow; B is the companion flow paired
	// with it (nil when the capture held no companion).
	A *FlowTrace
	B *FlowTrace
	// ID is the pipeline outcome (label, confidence, special shape, or
	// the invalid reason).
	ID core.Identification
}

// Reassemble decodes a capture stream and reconstructs its flows in one
// offline tracker: the sequential reference the stream pipeline is
// tested against, for callers that want raw traces. On a malformed
// capture it returns the flows reassembled so far along with the error.
func Reassemble(r io.Reader, cfg Config) ([]*FlowTrace, CaptureStats, error) {
	var stats CaptureStats
	rd, err := pcap.NewReader(r)
	if err != nil {
		return nil, stats, err
	}
	tracker := NewTracker(cfg)
	var pkt pcap.Packet
	for {
		err = rd.Next(&pkt)
		if err != nil {
			break
		}
		tracker.Observe(&pkt)
	}
	flows := tracker.Finish()
	ds := rd.Stats()
	ts := tracker.Stats()
	stats = CaptureStats{
		Packets:          ds.Packets,
		TCPSegments:      ds.TCP,
		SkippedPackets:   ds.Skipped,
		TruncatedPackets: ds.Truncated,
		Flows:            ts.Flows,
		EvictedFlows:     ts.Evicted,
		DroppedFlows:     ts.Dropped,
		TruncatedFlows:   ts.Truncated,
	}
	for _, f := range flows {
		if f.Trace != nil && f.Trace.Valid() {
			stats.Classifiable++
		}
	}
	if err != io.EOF {
		return flows, stats, err
	}
	return flows, stats, nil
}

// Pair groups flows by (client IP, server endpoint) and pairs each valid
// timed-out trace with the connection that follows it, mirroring how the
// active prober gathers environment A then environment B from one
// server. Flows with no valid trace and no valid predecessor become
// unpaired entries. Pairs are returned in deterministic capture order.
func Pair(flows []*FlowTrace) []FlowIdentification {
	groups := map[string][]*FlowTrace{}
	var order []string
	for _, f := range flows {
		gk := f.ClientIP + "|" + f.Server
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], f)
	}
	sort.Strings(order)

	var out []FlowIdentification
	for _, gk := range order {
		fs := groups[gk] // already in capture order (flows are sorted)
		for i := 0; i < len(fs); i++ {
			f := fs[i]
			if f.Trace != nil && f.Trace.Valid() && i+1 < len(fs) {
				out = append(out, FlowIdentification{A: f, B: fs[i+1]})
				i++
				continue
			}
			out = append(out, FlowIdentification{A: f})
		}
	}
	// Restore capture order across groups.
	sort.SliceStable(out, func(i, j int) bool { return flowLess(out[i].A, out[j].A) })
	return out
}

// pairResult maps one flow pair onto the probe result the identification
// pipeline consumes.
func pairResult(p *FlowIdentification) *probe.Result {
	res := &probe.Result{MSS: p.A.MSS}
	if p.A.Trace != nil {
		// Pairing fixes the environment roles the traces played.
		p.A.Trace.Env = "A"
		res.TraceA = p.A.Trace
		res.Wmax = p.A.Trace.WmaxThreshold
	}
	if p.B != nil && p.B.Trace != nil {
		p.B.Trace.Env = "B"
		res.TraceB = p.B.Trace
	}
	switch {
	case res.TraceA == nil:
		res.Reason = probe.ReasonInsufficientData
	case !res.TraceA.Valid():
		res.Valid = false
		if !res.TraceA.TimedOut {
			res.Reason = probe.ReasonNoTimeout
		} else {
			res.Reason = probe.ReasonNoResponse
		}
	default:
		res.Valid = true
	}
	return res
}

// IdentifyCapture is the passive pipeline end to end: it drains r
// through an identify stream (NewIdentifyStream) and returns every
// classified pair in capture order, sorted by the A flow as Pair orders
// them. Each pair's ID.Timings carries its feature and classify spans
// plus an equal share of the whole drain under StageGather. Unless
// opts bounds it, the tracker keeps the offline MaxEmitted default,
// since the results accumulate here. Memory otherwise stays bounded
// regardless of the capture's size.
func IdentifyCapture(r io.Reader, model classify.Classifier, opts IdentifyStreamOptions) ([]FlowIdentification, CaptureStats, error) {
	start := time.Now()
	if opts.Stream.Tracker.MaxEmitted == 0 {
		opts.Stream.Tracker.MaxEmitted = Config{}.withDefaults().MaxEmitted
	}
	var pairs []FlowIdentification
	st := NewIdentifyStream(context.Background(), model, opts, func(fi FlowIdentification) {
		pairs = append(pairs, fi)
	})
	if _, err := io.Copy(st, r); err != nil && !errors.Is(err, io.ErrClosedPipe) {
		// The reader failed; a closed pipe instead means the decoder
		// stopped early, and Close reports why.
		st.Abort(err)
		return nil, st.Stats(), fmt.Errorf("flow: reading capture: %w", err)
	}
	if err := st.Close(); err != nil {
		return nil, st.Stats(), fmt.Errorf("flow: decoding capture: %w", err)
	}
	slices.SortFunc(pairs, func(x, y FlowIdentification) int { return flowCmp(x.A, y.A) })
	if len(pairs) > 0 {
		share := time.Since(start) / time.Duration(len(pairs))
		for i := range pairs {
			pairs[i].ID.Timings[telemetry.StageGather] = share
		}
	}
	return pairs, st.Stats(), nil
}
