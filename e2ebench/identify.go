package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/forest"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// ladderStep is one rung of identify_miss's open-loop rate ladder: N
// Poisson arrivals at Rate.
type ladderStep struct {
	Rate float64 `json:"rate"`
	N    int     `json:"n"`
}

// missLadder is the fixed rate ladder, scaled to the run length: the
// reference rate first and longest (200 arrivals per second of run, so
// its p99 rests on 20 samples beyond it at -seconds 10; p50_ms is read
// there and its p99 kept in the results record), then rising rates, every
// rung with enough arrivals for a supported p99 (110 per second of run,
// at least 1100). The reference rate is about a fifth of what two
// connections sustain on a 2-core box (1.0k-1.6k/s): low enough that a
// slower machine barely adds queueing, so its latency is mostly service
// time. The rungs are ~8% apart where
// the ladder usually ends.
func missLadder(seconds time.Duration) []ladderStep {
	n := max(1100, int(110*seconds.Seconds()))
	steps := []ladderStep{{Rate: missRefRate, N: max(1100, int(200*seconds.Seconds()))}}
	for _, r := range []float64{700, 850, 1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900, 2000} {
		steps = append(steps, ladderStep{Rate: r, N: n})
	}
	return steps
}

const (
	missRefRate = 250
	// stepPause lets one step's stragglers drain before the next starts.
	stepPause = 100 * time.Millisecond
	// rungAttempts is how often a rung above the reference is tried before
	// it counts as not holding: the machine's stalls (the generator's
	// lateness p99 reaches 10-20 ms on a busy host) can sink one attempt's
	// p99 at a rate the server sustains.
	rungAttempts = 2
)

// jsonBodies marshals each value.
func jsonBodies[T any](vs []T) [][]byte {
	out := make([][]byte, len(vs))
	for i, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			panic("e2ebench: marshalling a request of plain scalars: " + err.Error())
		}
		out[i] = b
	}
	return out
}

func identifyBodies(specs []service.JobSpec) [][]byte {
	reqs := make([]service.IdentifyRequest, len(specs))
	for i, s := range specs {
		reqs[i] = service.IdentifyRequest{JobSpec: s}
	}
	return jsonBodies(reqs)
}

// refOutcomes computes Session.Identify for every spec on the in-process
// model, one session per engine worker, and returns the outcomes with the
// per-call times.
func refOutcomes(m *model, specs []service.JobSpec, parallelism int) ([]outcome, []time.Duration) {
	outs := make([]outcome, len(specs))
	took := make([]time.Duration, len(specs))
	sessions := make([]*core.Session, engine.Workers(len(specs), parallelism))
	for w := range sessions {
		sessions[w] = m.id.NewSession()
	}
	_ = engine.RunWorkers(context.Background(), len(specs), parallelism, func(w, i int) {
		s := specs[i]
		start := time.Now()
		id := sessions[w].Identify(specServer(s), specCond(s), probe.Config{}, xrand.New(s.Seed))
		took[i] = time.Since(start)
		outs[i] = outcomeOf(id)
	})
	return outs, took
}

// miss is identify_miss: open-loop Poisson POST /v1/identify, every
// request a fresh spec, so each one probes and writes the cache.
type miss struct {
	ladder []ladderStep
	// offs[k][a] are the arrival offsets of rung k's attempt a, whose
	// requests are bodies[first[k][a]:]; every attempt gets fresh specs.
	offs   [][][]time.Duration
	first  [][]int
	specs  []service.JobSpec
	bodies [][]byte

	samples  []sample
	sent     []int  // spec index of each sample
	steps    []step // the deciding attempt of each rung run
	attempts []step // every attempt run
}

func newMiss(seed int64, seconds time.Duration) *miss {
	w := &miss{ladder: missLadder(seconds)}
	arr := subRNG(seed, streamArrival)
	n := 0
	for k, st := range w.ladder {
		tries := rungAttempts
		if k == 0 {
			tries = 1 // the reference step's figures are reported as they fall
		}
		w.offs = append(w.offs, nil)
		w.first = append(w.first, nil)
		for a := 0; a < tries; a++ {
			offs := poissonArrivals(arr, st.Rate, st.N)
			w.offs[k] = append(w.offs[k], offs)
			w.first[k] = append(w.first[k], n)
			n += len(offs)
		}
	}
	w.specs = identifySpecs(subRNG(seed, streamMiss), n)
	w.bodies = identifyBodies(w.specs)
	return w
}

func (w *miss) prepare(*bench, *client) error { return nil }

func (w *miss) drive(b *bench, c *client) (*phase, error) {
	for k, ls := range w.ladder {
		var st step
		for a, offs := range w.offs[k] {
			lo := w.first[k][a]
			ss, start := openLoop(c, "/v1/identify", w.bodies[lo:lo+len(offs)], offs, b.conns)
			for i := range ss {
				w.sent = append(w.sent, lo+i)
			}
			w.samples = append(w.samples, ss...)
			st = summarizeStep(ls.Rate, start, offs[len(offs)-1], ss)
			w.attempts = append(w.attempts, st)
			logf("identify_miss %v", st)
			time.Sleep(stepPause)
			if st.holds() {
				break
			}
		}
		w.steps = append(w.steps, st)
		if !st.holds() {
			break
		}
	}
	ref := w.steps[0]
	if !ref.P99OK {
		return nil, fmt.Errorf("reference step has %d requests, too few for a p99", ref.N)
	}
	maxRPS, _ := maxRate(w.steps)
	var bodyBytes int
	for _, body := range w.bodies {
		bodyBytes += len(body)
	}
	ph := &phase{
		e2e: map[string]float64{
			"p50_ms":    ref.P50Ms,
			"ids_per_s": maxRPS,
			"mb_per_s":  maxRPS * float64(bodyBytes) / float64(len(w.bodies)) / 1e6,
		},
		ops:        len(w.samples),
		attempted:  len(w.samples),
		clientOpMs: ref.P50Ms,
		detail: map[string]any{"ladder": w.ladder, "attempts_per_rung": rungAttempts, "p99_ms": ref.P99Ms,
			"steps": w.attempts, "latency_limit_ms": latencyLimitMs},
	}
	for i := range w.samples {
		if !w.samples[i].ok() {
			ph.failed++
		}
	}
	return ph, nil
}

// check compares every answered request with Session.Identify on the same
// spec and seed; a response served from the cache is a failure too.
func (w *miss) check(b *bench, m *model) (int, map[string]float64) {
	sent := make([]service.JobSpec, len(w.sent))
	for i, idx := range w.sent {
		sent[i] = w.specs[idx]
	}
	refs, took := refOutcomes(m, sent, b.conns)
	failed := 0
	for i := range w.samples {
		s := &w.samples[i]
		if !s.ok() {
			continue // already counted
		}
		var r service.IdentifyResponse
		if err := json.Unmarshal(s.body, &r); err != nil || r.Cached || outcomeOfResponse(&r) != refs[i] {
			failed++
		}
	}
	if failed > 0 {
		logf("identify_miss: %d responses differ from the in-process reference", failed)
	}
	t := make([]float64, len(took))
	for i, d := range took {
		t[i] = us(d)
	}
	return failed, map[string]float64{"core.identify_us": median(t)}
}

// replayMiss is how many of the sent requests the traced run replays.
const replayMiss = 1000

// replay splits a miss across the layers: request decode, gather,
// feature extraction, scalar classify and response encode, each a span
// under the operation (see recorder.passes). It also times the service
// handler in-process on the same requests.
func (w *miss) replay(b *bench, m *model, rec *recorder, ph *phase) (map[string]float64, error) {
	n := min(replayMiss, len(w.samples))
	refs, _ := refOutcomes(m, w.specs[:n], b.conns)
	p := newPipeline(m)
	var rounds []float64
	err := rec.passes(func() error {
		rounds = rounds[:0]
		for i := 0; i < n; i++ {
			var o outcome
			var err error
			rec.op(i, func() {
				var req service.IdentifyRequest
				rec.span("service.decode", func() { err = json.Unmarshal(w.bodies[i], &req) })
				var id core.Identification
				rec.span("core.identify", func() { id = p.identify(rec, req.JobSpec) })
				rec.span("service.encode", func() { err = encodeResponse(id) })
				o = outcomeOf(id)
			})
			if err != nil {
				return err
			}
			if o != refs[i] {
				return fmt.Errorf("replay of request %d diverges from Session.Identify: %+v vs %+v", i, o, refs[i])
			}
			rounds = append(rounds, float64(p.rounds))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	handlerUs, err := replayHandler(m, rec, w.bodies[:n])
	if err != nil {
		return nil, err
	}
	tot, _ := rec.selfTotals()
	return map[string]float64{
		"service.handler_us":      handlerUs,
		"service.wire_us":         ph.clientOpMs*1000 - handlerUs,
		"service.codec_us":        us(tot["service.decode"]+tot["service.encode"]) / float64(n),
		"probe.gather_ms":         rec.medianUs("probe.gather") / 1000,
		"probe.rounds_per_gather": median(rounds),
		"feature.extract_us":      rec.medianUs("feature.extract"),
		"forest.classify_us":      rec.medianUs("forest.classify"),
		"feature.share_pct":       rec.share("feature.extract"),
		"forest.share_pct":        rec.share("forest.classify"),
	}, nil
}

// pipeline is the identify pipeline spelled out through each layer's
// public entry points (what core.Session.Identify does inside), so the
// replay can put a span around every layer.
type pipeline struct {
	f      *forest.Forest
	p      *probe.Prober
	sc     feature.Scratch
	rounds int // Pre+Post rounds of the last gathering's traces
	// block classification (batch replay)
	bsc    forest.BatchScratch
	vecs   [][]float64
	labels []string
	confs  []float64
}

func newPipeline(m *model) *pipeline {
	return &pipeline{f: m.id.Classifier().(*forest.Forest)}
}

// gather probes one spec, reusing the prober as sessions do.
func (p *pipeline) gather(s service.JobSpec) *probe.Result {
	cond, rng := specCond(s), xrand.New(s.Seed)
	if p.p == nil {
		p.p = probe.New(probe.Config{}, cond, rng)
		p.p.Reuse()
	} else {
		p.p.Rearm(probe.Config{}, cond, rng)
	}
	res := p.p.Gather(specServer(s))
	p.rounds = 0
	for _, t := range []*trace.Trace{res.TraceA, res.TraceB} {
		if t != nil {
			p.rounds += len(t.Pre) + len(t.Post)
		}
	}
	return res
}

// prepare is the pre-classification half of the pipeline: validity,
// special shapes, feature extraction. It reports whether the outcome
// still needs the model.
func (p *pipeline) prepare(res *probe.Result) (core.Identification, bool) {
	out := core.Identification{Wmax: res.Wmax, MSS: res.MSS, Reason: res.Reason}
	if !res.Valid {
		return out, false
	}
	out.Valid = true
	if sp := trace.DetectSpecial(res.TraceA); sp != trace.SpecialNone {
		out.Special = sp
		return out, false
	}
	out.Vector = feature.ExtractWith(&p.sc, res.TraceA, res.TraceB)
	return out, true
}

// label applies the forest's verdict with the paper's Unsure rule.
func label(out *core.Identification, l string, conf float64) {
	out.Confidence = conf
	out.Label = l
	if conf < core.UnsureThreshold {
		out.Label = core.LabelUnsure
	}
}

// identify is one scalar identification with a span per layer.
func (p *pipeline) identify(rec *recorder, s service.JobSpec) core.Identification {
	var res *probe.Result
	rec.span("probe.gather", func() { res = p.gather(s) })
	var out core.Identification
	var need bool
	rec.span("feature.extract", func() { out, need = p.prepare(res) })
	if need {
		rec.span("forest.classify", func() {
			l, conf := p.f.Classify(out.Vector[:])
			label(&out, l, conf)
		})
	}
	return out
}

// encodeResponse renders an identification the way the handler does (an
// indented JSON document of the wire response).
func encodeResponse(id core.Identification) error {
	enc := json.NewEncoder(discard{})
	enc.SetIndent("", "  ")
	return enc.Encode(wireResponse(id))
}

func wireResponse(id core.Identification) service.IdentifyResponse {
	o := outcomeOf(id)
	r := service.IdentifyResponse{
		Model: "default@1", Valid: o.Valid, Label: o.Label, Confidence: o.Confidence,
		Special: o.Special, Reason: o.Reason, Wmax: id.Wmax, MSS: id.MSS, Text: id.String(),
	}
	if o.Label != "" {
		r.Features = append([]float64(nil), id.Vector[:]...)
	}
	return r
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// inProcess returns an in-process service of the model in the default
// configuration, as caai-serve runs it. The caller closes it.
func inProcess(m *model) *service.Service {
	reg := service.NewRegistry()
	reg.Add("default", m.id.Classifier())
	return service.New(reg, service.Config{})
}

// replayHandler serves bodies through a fresh in-process service, one root
// span per request, and returns the median handler time in µs.
func replayHandler(m *model, rec *recorder, bodies [][]byte) (float64, error) {
	svc := inProcess(m)
	defer svc.Close()
	h := svc.Handler()
	for i, body := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/identify", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		rec.root("service.handler", i, func() { h.ServeHTTP(rr, req) })
		if rr.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process handler: status %d", rr.Code)
		}
	}
	return rec.medianUs("service.handler"), nil
}

// hit is identify_hit: closed-loop POST /v1/identify over a hot set primed
// before timing, so every timed request is a cache hit.
type hit struct {
	specs  []service.JobSpec
	bodies [][]byte
	orders [][]int // per connection: its pass order over the hot set

	primed []service.IdentifyResponse
	expect [][]byte // the hit response body of each hot spec
	failed int      // priming failures
}

// hotSet is the number of hot specs: well inside the default 4096-entry
// result cache.
const hotSet = 64

func newHit(seed int64) *hit {
	rng := subRNG(seed, streamHit)
	w := &hit{specs: identifySpecs(rng, hotSet)}
	w.bodies = identifyBodies(w.specs)
	return w
}

// prepare primes the cache with every hot spec and records the hit body
// each must return from then on: the priming response, marked cached.
func (w *hit) prepare(b *bench, c *client) error {
	rng := subRNG(b.seed, streamHitOrder)
	for k := 0; k < b.conns; k++ {
		w.orders = append(w.orders, rng.Perm(hotSet))
	}
	w.primed = make([]service.IdentifyResponse, hotSet)
	w.expect = make([][]byte, hotSet)
	for i, body := range w.bodies {
		st, first, err := c.do(http.MethodPost, "/v1/identify", body)
		if err != nil {
			return err
		}
		st2, second, err := c.do(http.MethodPost, "/v1/identify", body)
		if err != nil {
			return err
		}
		var r1, r2 service.IdentifyResponse
		if st != http.StatusOK || st2 != http.StatusOK ||
			json.Unmarshal(first, &r1) != nil || json.Unmarshal(second, &r2) != nil {
			w.failed++
			continue
		}
		w.primed[i] = r1
		w.expect[i] = second
		r1.Cached = true
		if !r2.Cached || !reflect.DeepEqual(r1, r2) {
			w.failed++
		}
	}
	return nil
}

// hitWindow is the length of the windows identify_hit's figures are
// taken over: each window gives a rate, a p50 and a p99 (thousands of
// requests each), and the run reports their medians, so a short stall of
// the machine moves one window rather than the run's figure.
const hitWindow = time.Second

func (w *hit) drive(b *bench, c *client) (*phase, error) {
	type conn struct {
		lat    []float64
		at     []time.Duration // completion, since start
		size   []int           // request body bytes
		failed int
		lost   int // requests cut off by a connection error
	}
	conns := make([]conn, b.conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(b.seconds)
	for k := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := &conns[k]
			order := w.orders[k]
			err := closedLoop(c, "/v1/identify", w.bodies, order, deadline,
				func(i int, sent, done time.Time, st int, body []byte) {
					cs.lat = append(cs.lat, ms(done.Sub(sent)))
					cs.at = append(cs.at, done.Sub(start))
					cs.size = append(cs.size, len(w.bodies[i]))
					if st != http.StatusOK || !bytes.Equal(body, w.expect[i]) {
						cs.failed++
					}
				})
			if err != nil {
				logf("identify_hit connection %d: %v", k, err)
				cs.lost++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ph := &phase{e2e: map[string]float64{}, failed: w.failed}
	windows := make([][]float64, int(b.seconds/hitWindow))
	bytesIn := make([]int, len(windows))
	for _, cs := range conns {
		ph.ops += len(cs.lat)
		ph.failed += cs.failed + cs.lost
		ph.attempted += cs.lost
		for i, at := range cs.at {
			if k := int(at / hitWindow); k < len(windows) {
				windows[k] = append(windows[k], cs.lat[i])
				bytesIn[k] += cs.size[i]
			}
		}
	}
	ph.attempted += 2*hotSet + ph.ops
	var rps, mbps, p50s, p99s []float64
	for k, win := range windows {
		rps = append(rps, float64(len(win))/hitWindow.Seconds())
		mbps = append(mbps, float64(bytesIn[k])/1e6/hitWindow.Seconds())
		if p50, ok := percentile(win, 0.5); ok {
			p50s = append(p50s, p50)
		}
		if p99, ok := percentile(win, 0.99); ok {
			p99s = append(p99s, p99)
		}
	}
	if len(p50s) == 0 {
		return nil, fmt.Errorf("identify_hit: no %v window had enough requests for a p50", hitWindow)
	}
	mid := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }
	// Every request answers one identification from the cache.
	ph.e2e["ids_per_s"], ph.e2e["mb_per_s"], ph.e2e["p50_ms"] = mid(rps), mid(mbps), mid(p50s)
	ph.clientOpMs = ph.e2e["p50_ms"]
	ph.detail = map[string]any{"requests": ph.ops, "hot_set": hotSet, "elapsed_s": elapsed.Seconds(),
		"window_s": hitWindow.Seconds(), "window_rps": rps, "window_p50_ms": p50s, "window_p99_ms": p99s}
	return ph, nil
}

// check compares each primed answer with Session.Identify.
func (w *hit) check(b *bench, m *model) (int, map[string]float64) {
	refs, _ := refOutcomes(m, w.specs, b.conns)
	failed := 0
	for i := range refs {
		if w.expect[i] != nil && outcomeOfResponse(&w.primed[i]) != refs[i] {
			failed++
		}
	}
	return failed, nil
}

// replayHit is how many cache-hit requests the traced run serves.
const replayHit = 20000

// replay serves hits through the in-process handler: here the service
// layer is all of the work.
func (w *hit) replay(b *bench, m *model, rec *recorder, ph *phase) (map[string]float64, error) {
	svc := inProcess(m)
	defer svc.Close()
	h := svc.Handler()
	for _, body := range w.bodies {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/identify", bytes.NewReader(body)))
	}
	rng := rand.New(rand.NewSource(b.seed))
	reqs := make([]*http.Request, replayHit)
	rrs := make([]*httptest.ResponseRecorder, replayHit)
	err := rec.passes(func() error {
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/identify", bytes.NewReader(w.bodies[rng.Intn(hotSet)]))
			rrs[i] = httptest.NewRecorder()
		}
		for i := range reqs {
			rec.op(i, func() { rec.span("service.handler", func() { h.ServeHTTP(rrs[i], reqs[i]) }) })
			if rrs[i].Code != http.StatusOK {
				return fmt.Errorf("in-process hit: status %d", rrs[i].Code)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	handlerUs := rec.medianUs("service.handler")
	return map[string]float64{
		"service.handler_us": handlerUs,
		"service.wire_us":    ph.clientOpMs*1000 - handlerUs,
	}, nil
}
