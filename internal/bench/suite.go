package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/flow"
	"repro/internal/forest"
	"repro/internal/netem"
	"repro/internal/pcap"
	"repro/internal/pcapgen"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/websim"
)

// Suite builds the hot-path benchmark cases against ctx's (lazily trained
// and cached) model. These are the same measurements `go test -bench`
// exposes through bench_test.go; caai-bench runs them standalone and
// persists the numbers.
func Suite(ctx *experiments.Context) ([]Case, error) {
	model, err := ctx.Model()
	if err != nil {
		return nil, err
	}
	cases := []Case{
		{Name: "probe/gather_env", Bench: GatherSession()},
		{Name: "feature/extract", Bench: FeatureExtraction()},
		{Name: "engine/identify_batch", Bench: IdentifyBatch(model, 64)},
		{Name: "pcap/ingest", Bench: PcapIngest(model)},
		{Name: "pcap/stream_ingest", Bench: PcapStreamIngest()},
		{Name: "service/identify_hit", Bench: ServiceIdentify(model, false)},
		{Name: "service/identify_miss", Bench: ServiceIdentify(model, true)},
		{Name: "service/batch_blocks", Bench: ServiceBatchBlocks(model, 64)},
		{Name: "telemetry/overhead", Bench: TelemetryOverhead(model)},
		{Name: "telemetry/trace_overhead", Bench: TraceOverhead(model)},
	}
	if f, ok := model.(*forest.Forest); ok {
		cases = append([]Case{
			{Name: "forest/votes_into", Bench: ForestVotesInto(f)},
			{Name: "forest/classify", Bench: ForestClassify(model)},
			{Name: "forest/classify_batch", Bench: ForestClassifyBatch(f, 64)},
		}, cases...)
	} else {
		cases = append([]Case{{Name: "forest/classify", Bench: ForestClassify(model)}}, cases...)
	}
	return cases, nil
}

// benchVector is a representative in-distribution feature vector.
var benchVector = []float64{0.7, 18, 110, 0.7, 11, 83, 1, 9}

// ForestVotesInto measures the arena vote walk with a reused buffer (the
// zero-allocation classification core).
func ForestVotesInto(f *forest.Forest) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		votes := f.VotesInto(nil, benchVector)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			votes = f.VotesInto(votes, benchVector)
		}
	}
}

// ForestClassify measures the classify.Classifier entry point (pooled vote
// buffers for the forest backend).
func ForestClassify(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		model.Classify(benchVector) // warm any pools
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model.Classify(benchVector)
		}
	}
}

// ForestClassifyBatch measures the batched branch-free kernel on a block
// of m spread-out vectors with caller-owned scratch. One op classifies the
// whole block, so ns/op here divided by m is the per-sample cost to weigh
// against forest/classify.
func ForestClassifyBatch(f *forest.Forest, m int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(9))
		vecs := make([][]float64, m)
		for i := range vecs {
			v := make([]float64, len(benchVector))
			for d, x := range benchVector {
				v[d] = x * (0.5 + rng.Float64())
			}
			vecs[i] = v
		}
		labels := make([]string, m)
		confs := make([]float64, m)
		var sc forest.BatchScratch
		f.ClassifyBatchInto(&sc, vecs, labels, confs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.ClassifyBatchInto(&sc, vecs, labels, confs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/sample")
		b.ReportMetric(float64(m), "block")
	}
}

// GatherSession measures one full environment-A gathering session against
// a lossless CUBIC2 testbed server with a reused prober.
func GatherSession() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		p := probe.New(probe.Config{}, netem.Lossless, rng)
		p.Reuse()
		server := websim.Testbed("CUBIC2")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.GatherEnv(server, probe.EnvA(), 256, 536, 64<<20); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// FeatureExtraction measures CAAI step 2 with reused scratch on gathered
// traces.
func FeatureExtraction() func(*testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		p := probe.New(probe.Config{}, netem.Lossless, rng)
		ta, err := p.GatherEnv(websim.Testbed("CUBIC2"), probe.EnvA(), 256, 536, 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		tb, err := p.GatherEnv(websim.Testbed("CUBIC2"), probe.EnvB(), 256, 536, 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		var sc feature.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feature.ExtractWith(&sc, ta, tb)
		}
	}
}

// IdentifyBatch measures batched identification of jobs servers through a
// pretrained model on the worker pool, with per-worker block sessions
// feeding the batched forest kernel (the default engine path since the
// block-inference change; probing still dominates, allocs/op is the
// budgeted number).
func IdentifyBatch(model classify.Classifier, jobs int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		id := core.NewIdentifier(model)
		rng := rand.New(rand.NewSource(77))
		db := netem.MeasuredDatabase()
		batch := make([]engine.Job, jobs)
		names := cc.CAAINames()
		for i := range batch {
			batch[i] = engine.Job{Server: websim.Testbed(names[i%len(names)]), Cond: db.Sample(rng)}
		}
		b.ResetTimer()
		var valid int
		for i := 0; i < b.N; i++ {
			results := engine.IdentifyBatch[core.Identification](id, batch, engine.BatchConfig[core.Identification]{
				Seed: int64(i),
				NewWorkerBlock: func() engine.BlockIdentifier[core.Identification] {
					return id.NewBlockSession()
				},
			})
			valid = 0
			for _, r := range results {
				if r.Out.Valid {
					valid++
				}
			}
		}
		b.ReportMetric(float64(valid)/float64(jobs)*100, "valid-%")
		b.ReportMetric(float64(jobs), "jobs/op")
	}
}

// ServiceBatchBlocks measures the async batch queue end to end: POST
// /v1/batch with jobs all-miss specs, then long-poll GET
// /v1/jobs/{id}?wait= until the worker has coalesced the queue into
// inference blocks and finished.
// One op is one whole batch job; seeds vary per iteration so every spec
// is a fresh probe through the block pipeline, never a cache replay.
func ServiceBatchBlocks(model classify.Classifier, jobs int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		reg := service.NewRegistry()
		reg.Add("bench", model)
		svc := service.New(reg, service.Config{})
		b.Cleanup(svc.Close)
		h := svc.Handler()
		names := cc.CAAINames()

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var body strings.Builder
			body.WriteString(`{"jobs":[`)
			for k := 0; k < jobs; k++ {
				if k > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, `{"server":{"algorithm":%q},"condition":{"loss_rate":0.005},"seed":%d}`,
					names[k%len(names)], int64(i*jobs+k+1))
			}
			body.WriteString(`]}`)
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body.String()))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				b.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
			}
			var acc service.BatchAccepted
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				b.Fatal(err)
			}
			for {
				// Long-poll: one GET that answers when the job ends, so
				// the op's allocations do not scale with spare cores.
				req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+acc.JobID+"?wait=30s", nil)
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var st service.JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					b.Fatal(err)
				}
				if st.State == service.StateDone {
					if st.CacheHits != 0 {
						b.Fatalf("batch saw %d cache hits, want all misses", st.CacheHits)
					}
					break
				}
				if st.State == service.StateFailed || st.State == service.StateCancelled {
					b.Fatalf("job ended %s: %s", st.State, st.Error)
				}
			}
		}
		b.ReportMetric(float64(jobs), "jobs/op")
	}
}

// PcapIngest measures the passive pipeline end to end -- pcap decode, TCP
// flow reassembly, congestion-window reconstruction, pairing, and
// classification, all on the sharded stream pipeline that
// flow.IdentifyCapture drains -- over a pregenerated two-server
// synthetic capture.
// b.SetBytes makes `go test -bench` report MB/s of capture throughput;
// the suite records ns/op and allocs/op against the budget.
func PcapIngest(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		var buf bytes.Buffer
		if _, err := pcapgen.Generate(&buf, []pcapgen.ServerSpec{
			{Algorithm: "CUBIC2", Seed: 51},
			{Algorithm: "RENO", Seed: 52},
		}, pcapgen.Options{}); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		var pairs int
		for i := 0; i < b.N; i++ {
			out, _, err := flow.IdentifyCapture(bytes.NewReader(data), model, flow.IdentifyStreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			pairs = len(out)
		}
		if pairs != 2 {
			b.Fatalf("capture yielded %d identifications, want 2", pairs)
		}
		b.ReportMetric(float64(len(data)), "capture-bytes/op")
	}
}

// PcapStreamIngest measures the streaming pipeline -- bounded ring,
// sharded decode with address-pair affinity, online flow tracking, epoch
// expiry -- over a live-monitoring workload: dozens of concurrent bulk
// transfers with MTU-sized segments interleaved packet by packet, the
// shape a `tcpdump -w -` feed has (unlike pcap/ingest's small-MSS probe
// capture). b.SetBytes reports MB/s of capture throughput.
func PcapStreamIngest() func(*testing.B) {
	return func(b *testing.B) {
		const (
			nflows = 64
			rounds = 96
			mss    = 1448
		)
		var buf bytes.Buffer
		w, err := pcap.NewWriter(&buf, pcap.LinkEthernet, 0)
		if err != nil {
			b.Fatal(err)
		}
		ts := time.Unix(1700000000, 0)
		var frame []byte
		write := func(spec *pcap.FrameSpec) {
			frame = pcap.AppendFrame(frame[:0], spec)
			if err := w.WritePacket(ts, len(frame), frame); err != nil {
				b.Fatal(err)
			}
			ts = ts.Add(37 * time.Microsecond)
		}
		type conn struct {
			cli, srv netip.AddrPort
			seq      uint32
		}
		conns := make([]conn, nflows)
		for i := range conns {
			conns[i] = conn{
				cli: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), uint16(40000+i)),
				srv: netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 8)}), 443),
				seq: 1,
			}
		}
		for i := range conns {
			c := &conns[i]
			write(&pcap.FrameSpec{Src: c.cli, Dst: c.srv, Flags: pcap.FlagSYN, Window: 65535,
				Opt: pcap.TCPOptions{MSS: mss, HasMSS: true}})
			write(&pcap.FrameSpec{Src: c.srv, Dst: c.cli, Ack: 1, Flags: pcap.FlagSYN | pcap.FlagACK,
				Window: 65535, Opt: pcap.TCPOptions{MSS: mss, HasMSS: true}})
			write(&pcap.FrameSpec{Src: c.cli, Dst: c.srv, Seq: 1, Ack: 1, Flags: pcap.FlagACK, Window: 65535})
		}
		for r := 0; r < rounds; r++ {
			for i := range conns {
				c := &conns[i]
				write(&pcap.FrameSpec{Src: c.srv, Dst: c.cli, Seq: c.seq, Ack: 1,
					Flags: pcap.FlagACK, Window: 65535, PayloadLen: mss})
				c.seq += mss
				if r%4 == 3 {
					write(&pcap.FrameSpec{Src: c.cli, Dst: c.srv, Seq: 1, Ack: c.seq,
						Flags: pcap.FlagACK, Window: 65535})
				}
			}
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		var flows int
		for i := 0; i < b.N; i++ {
			flows = 0
			st := flow.NewStream(context.Background(), flow.StreamConfig{
				Tracker: flow.Config{MaxFlows: 4 * nflows, MaxEmitted: -1},
			}, func(*flow.FlowTrace) { flows++ })
			if _, err := st.Write(data); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if flows != nflows {
			b.Fatalf("stream emitted %d flows, want %d", flows, nflows)
		}
		b.ReportMetric(float64(len(data)), "capture-bytes/op")
	}
}

// ServiceIdentify measures the HTTP service path end to end (JSON decode,
// registry lookup, cache, singleflight, pipeline, JSON encode). miss=false
// serves one request repeatedly from the LRU result cache; miss=true
// forces a fresh probe every iteration by varying the seed.
func ServiceIdentify(model classify.Classifier, miss bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		reg := service.NewRegistry()
		reg.Add("bench", model)
		svc := service.New(reg, service.Config{})
		b.Cleanup(svc.Close)
		h := svc.Handler()

		do := func(seed int64) service.IdentifyResponse {
			body := fmt.Sprintf(`{"server":{"algorithm":"CUBIC2"},"condition":{"loss_rate":0.005},"seed":%d}`, seed)
			req := httptest.NewRequest(http.MethodPost, "/v1/identify", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			var resp service.IdentifyResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				b.Fatal(err)
			}
			return resp
		}

		if miss {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := do(int64(i + 1)); resp.Cached {
					b.Fatal("unexpected cache hit")
				}
			}
			return
		}
		do(1) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := do(1); !resp.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	}
}

// TelemetryOverhead pins the observability contract on the scalar
// identify hot path: the timed op is a span-recording core.Session
// identify feeding a live telemetry.Pipeline (the caai-serve
// configuration); after the timed loop the same iteration count runs on
// an untimed session and the relative slowdown lands in "overhead-%"
// (clamped at zero -- scheduler noise can make the instrumented loop
// come out faster). The budget holds this at 0 allocs/op and <= 5%.
// Both sessions consume identical RNG streams, so the two loops do
// byte-for-byte the same probing work.
func TelemetryOverhead(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		id := core.NewIdentifier(model)
		server := websim.Testbed("CUBIC2")
		var tel telemetry.Pipeline
		timed := id.NewSession()
		timed.EnableTimings(&tel)
		plain := id.NewSession()
		rngTimed := rand.New(rand.NewSource(11))
		rngPlain := rand.New(rand.NewSource(11))
		timed.Identify(server, netem.Lossless, probe.Config{}, rngTimed)
		plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timed.Identify(server, netem.Lossless, probe.Config{}, rngTimed)
		}
		b.StopTimer()
		enabled := b.Elapsed()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		}
		baseline := time.Since(start)
		overhead := 0.0
		if baseline > 0 {
			overhead = (float64(enabled)/float64(baseline) - 1) * 100
		}
		if overhead < 0 {
			overhead = 0
		}
		b.ReportMetric(overhead, "overhead-%")
	}
}

// TraceOverhead pins the flight-recorder contract the same way
// TelemetryOverhead pins the pipeline's: the timed op is a
// span-recording identify that ALSO writes stage spans and events into a
// live telemetry.Flight's rings (the caai-serve configuration with
// tracing on, SampleN 1 so tail sampling retains every trace); the
// baseline is the identical session without a bound trace. Both consume
// identical RNG streams, so the loops do byte-for-byte the same probing
// work and "overhead-%" isolates the ring writes. The budget holds this
// at 0 allocs/op and <= 5%.
func TraceOverhead(model classify.Classifier) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		id := core.NewIdentifier(model)
		server := websim.Testbed("CUBIC2")
		var tel telemetry.Pipeline
		flight := telemetry.NewFlight(telemetry.FlightConfig{SampleN: 1})
		defer flight.Close()
		traced := id.NewSession()
		traced.EnableTimings(&tel)
		traced.BindTrace(flight, flight.Mint())
		plain := id.NewSession()
		plain.EnableTimings(&tel)
		rngTraced := rand.New(rand.NewSource(11))
		rngPlain := rand.New(rand.NewSource(11))
		traced.Identify(server, netem.Lossless, probe.Config{}, rngTraced)
		plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			traced.Identify(server, netem.Lossless, probe.Config{}, rngTraced)
		}
		b.StopTimer()
		enabled := b.Elapsed()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			plain.Identify(server, netem.Lossless, probe.Config{}, rngPlain)
		}
		baseline := time.Since(start)
		overhead := 0.0
		if baseline > 0 {
			overhead = (float64(enabled)/float64(baseline) - 1) * 100
		}
		if overhead < 0 {
			overhead = 0
		}
		b.ReportMetric(overhead, "overhead-%")
	}
}

// Accuracy runs the reduced-scale Table III cross-validation and returns
// the overall accuracy, the quality metric recorded alongside the perf
// numbers so a speedup that degrades classification is caught in the same
// trajectory file.
func Accuracy(ctx *experiments.Context) (float64, error) {
	res, err := experiments.TableIII(ctx)
	if err != nil {
		return 0, err
	}
	return res.Accuracy, nil
}
