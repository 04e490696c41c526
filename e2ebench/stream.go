package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/flow"
	"repro/internal/pcap"
	"repro/internal/probe"
	"repro/internal/service"
)

const (
	// streamServers probe sessions make up the capture (~3 MB and ~30k
	// header-only frames each): two of each CAAI algorithm.
	streamServers = 28
	// streamStagger separates consecutive servers' base times. One
	// server's sessions span about eleven minutes of capture time, so
	// every server's flows overlap and many flows are live at once.
	streamStagger = 500 * time.Millisecond
	// decodeChunk is how many packets the traced replay decodes per span.
	decodeChunk = 4096
)

// stream is the stream workload: PUT /v1/pcap/stream of the capture, one
// upload at a time at full backpressured speed, reading the NDJSON
// results while the upload runs.
type stream struct {
	cap     *capture
	uploads []upload
}

// upload is one PUT's outcome: the flow events it returned and its
// final summary line.
type upload struct {
	flows []service.IdentifyResponse
	final *service.StreamEvent
	dur   time.Duration // upload start to final line
	err   error
}

func newStream(seed int64) (*stream, error) {
	c, err := buildCapture(subRNG(seed, streamCapture), streamServers, streamStagger)
	if err != nil {
		return nil, err
	}
	return &stream{cap: c}, nil
}

func (w *stream) prepare(*bench, *client) error { return nil }

func (w *stream) drive(b *bench, c *client) (*phase, error) {
	deadline := time.Now().Add(b.seconds)
	var rates, idRates, durs []float64
	ph := &phase{e2e: map[string]float64{}}
	for time.Now().Before(deadline) {
		up := uploadCapture(c, w.cap.data)
		w.uploads = append(w.uploads, up)
		if up.err != nil {
			ph.failed++
			logf("stream upload %d: %v", len(w.uploads), up.err)
			continue
		}
		rates = append(rates, float64(len(w.cap.data))/1e6/up.dur.Seconds())
		idRates = append(idRates, float64(len(up.flows))/up.dur.Seconds())
		durs = append(durs, ms(up.dur))
	}
	ph.ops, ph.attempted = len(w.uploads), len(w.uploads)
	if len(rates) == 0 {
		return nil, errors.New("no capture upload completed")
	}
	ph.e2e["mb_per_s"] = median(append([]float64(nil), rates...))
	ph.e2e["ids_per_s"] = median(append([]float64(nil), idRates...))
	ph.e2e["p50_ms"] = median(append([]float64(nil), durs...))
	ph.detail = map[string]any{
		"uploads": len(w.uploads), "capture_bytes": len(w.cap.data), "capture_packets": w.cap.packets,
		"servers": streamServers, "stagger_ms": ms(streamStagger), "mb_per_s_each": rates,
	}
	return ph, nil
}

// uploadCapture streams data to /v1/pcap/stream and reads the NDJSON
// response concurrently (the server answers while the upload runs).
func uploadCapture(c *client, data []byte) upload {
	var up upload
	start := time.Now()
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/pcap/stream", bytes.NewReader(data))
	if err != nil {
		up.err = err
		return up
	}
	req.Header.Set("Content-Type", "application/vnd.tcpdump.pcap")
	resp, err := c.hc.Do(req)
	if err != nil {
		up.err = err
		return up
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		up.err = fmt.Errorf("status %s", resp.Status)
		return up
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev service.StreamEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				up.err = fmt.Errorf("decoding NDJSON line: %w", jerr)
				return up
			}
			switch {
			case ev.Flow != nil:
				up.flows = append(up.flows, *ev.Flow)
			case ev.Capture != nil:
				up.final = &ev
				up.dur = time.Since(start)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			up.err = err
			return up
		}
	}
	switch {
	case up.final == nil:
		up.err = errors.New("no final summary line")
	case up.final.Error != "":
		up.err = fmt.Errorf("stream error: %s", up.final.Error)
	}
	return up
}

// check holds every upload to the capture's ground truth: each server
// yields exactly one paired flow whose outcome equals
// core.Identifier.IdentifyResult on the result pcapgen gathered for it
// (no pair when that result is invalid), and no flow names another server.
func (w *stream) check(b *bench, m *model) (int, map[string]float64) {
	want := map[string]outcome{}
	for k, res := range w.cap.results {
		want[w.cap.servers[k]] = outcomeOf(m.id.IdentifyResult(res))
	}
	failed, mismatched := 0, 0
	for _, up := range w.uploads {
		if up.err != nil {
			continue // already counted
		}
		bad := mismatches(want, up.flows)
		mismatched += bad
		if bad > 0 {
			failed++
		}
	}
	if failed > 0 {
		logf("stream: %d uploads, %d server verdicts differ from the capture's ground truth", failed, mismatched)
	}
	return failed, nil
}

// mismatches counts the servers whose paired flows disagree with want.
func mismatches(want map[string]outcome, flows []service.IdentifyResponse) int {
	got := map[string][]outcome{}
	bad := 0
	for i := range flows {
		f := &flows[i]
		if _, ok := want[f.Server]; !ok {
			bad++
			continue
		}
		if f.Flow != nil && f.Flow.ClientB != "" {
			got[f.Server] = append(got[f.Server], outcomeOfResponse(f))
		}
	}
	for srv, o := range want {
		g := got[srv]
		switch {
		case !o.Valid && len(g) == 0:
		case o.Valid && len(g) == 1 && g[0] == o:
		default:
			bad++
		}
	}
	return bad
}

// replayStream is how many offline passes the traced run makes per mode.
const replayStream = 2

// replay splits one capture's identification across the layers in the
// sequential (offline) shape: decode a chunk, track it, then pair the
// finished flows and classify each pair. Whole-capture passes through
// the decoder alone, the streaming tracker, and the streaming identify
// pipeline give the layer throughputs.
func (w *stream) replay(b *bench, m *model, rec *recorder, ph *phase) (map[string]float64, error) {
	data := w.cap.data
	want := map[string]outcome{}
	for k, res := range w.cap.results {
		want[w.cap.servers[k]] = outcomeOf(m.id.IdentifyResult(res))
	}
	pkts := make([]pcap.Packet, decodeChunk)
	err := rec.passes(func() error {
		for k := 0; k < replayStream; k++ {
			var err error
			var pairs []flow.FlowIdentification
			rec.op(k, func() {
				var rd *pcap.Reader
				if rd, err = pcap.NewReader(bytes.NewReader(data)); err != nil {
					return
				}
				tr := flow.NewTracker(flow.Config{})
				for err == nil {
					n := 0
					rec.span("pcap.decode", func() {
						for n < len(pkts) {
							if err = rd.Next(&pkts[n]); err != nil {
								return
							}
							n++
						}
					})
					rec.span("flow.track", func() {
						for i := 0; i < n; i++ {
							tr.Observe(&pkts[i])
						}
					})
				}
				var flows []*flow.FlowTrace
				rec.span("flow.track", func() { flows = tr.Finish() })
				rec.span("flow.pair", func() { pairs = flow.Pair(flows) })
				for i := range pairs {
					rec.span("flow.classify", func() { pairs[i].ID = m.id.IdentifyResult(pairProbeResult(&pairs[i])) })
				}
			})
			if err != io.EOF {
				return fmt.Errorf("replay decode: %v", err)
			}
			if rec.tracing && k == 0 {
				if bad := mismatches(want, pairResponses(pairs)); bad > 0 {
					logf("stream replay: %d server verdicts of the offline path differ from the ground truth", bad)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decode, track, ident := wholePasses(rec, m, data)
	mb := float64(len(data)) / 1e6
	return map[string]float64{
		"pcap.decode_mb_per_s":          mb / decode.Seconds(),
		"flow.track_mb_per_s":           mb / track.Seconds(),
		"flow.identify_stream_mb_per_s": mb / ident.Seconds(),
		"flow.pair_classify_us":         rec.medianUs("flow.classify"),
	}, nil
}

// wholePasses times whole-capture passes (median of replayStream each, as
// root spans): decode alone, the streaming tracker with a discarding
// sink, and the streaming identify pipeline.
func wholePasses(rec *recorder, m *model, data []byte) (decode, track, ident time.Duration) {
	med := func(name string, fn func()) time.Duration {
		xs := make([]float64, replayStream)
		for i := range xs {
			xs[i] = float64(rec.root(name, i, fn))
		}
		return time.Duration(median(xs))
	}
	decode = med("pcap.decode_pass", func() {
		rd, err := pcap.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var pkt pcap.Packet
		for rd.Next(&pkt) == nil {
		}
	})
	track = med("flow.stream_pass", func() {
		s := flow.NewStream(context.Background(), flow.StreamConfig{}, func(*flow.FlowTrace) {})
		_, _ = s.Write(data)
		_ = s.Close()
	})
	ident = med("flow.identify_stream_pass", func() {
		s := flow.NewIdentifyStream(context.Background(), m.id.Classifier(), flow.IdentifyStreamOptions{}, func(flow.FlowIdentification) {})
		_, _ = s.Write(data)
		_ = s.Close()
	})
	return decode, track, ident
}

// pairProbeResult maps a flow pair onto the probe result the
// identification pipeline consumes, as the flow package does before
// classifying: A's trace plays environment A, B's environment B.
func pairProbeResult(p *flow.FlowIdentification) *probe.Result {
	res := &probe.Result{MSS: p.A.MSS}
	if p.A.Trace != nil {
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
		res.Reason = probe.ReasonNoResponse
		if !res.TraceA.TimedOut {
			res.Reason = probe.ReasonNoTimeout
		}
	default:
		res.Valid = true
	}
	return res
}

// pairResponses renders replayed pairs as the wire events the check reads.
func pairResponses(pairs []flow.FlowIdentification) []service.IdentifyResponse {
	out := make([]service.IdentifyResponse, len(pairs))
	for i, p := range pairs {
		o := outcomeOf(p.ID)
		out[i] = service.IdentifyResponse{Server: p.A.Server, Label: o.Label, Confidence: o.Confidence,
			Valid: o.Valid, Special: o.Special, Reason: o.Reason, Flow: &service.FlowInfo{}}
		if p.B != nil {
			out[i].Flow.ClientB = p.B.Client
		}
	}
	return out
}
