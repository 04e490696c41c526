package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/pcap"
)

func TestSameSeedSameRequests(t *testing.T) {
	a, b := newMiss(7, 10*time.Second), newMiss(7, 10*time.Second)
	if !reflect.DeepEqual(a.offs, b.offs) || !reflect.DeepEqual(a.bodies, b.bodies) {
		t.Fatal("identify_miss inputs differ for the same seed")
	}
	if c := newMiss(8, 10*time.Second); reflect.DeepEqual(a.bodies, c.bodies) {
		t.Fatal("identify_miss inputs identical for different seeds")
	}
	seen := map[int64]bool{}
	for _, s := range a.specs {
		if seen[s.Seed] {
			t.Fatalf("request seed %d repeats: a repeated spec would hit the cache", s.Seed)
		}
		seen[s.Seed] = true
	}
	h1, h2 := newHit(7), newHit(7)
	if !reflect.DeepEqual(h1.bodies, h2.bodies) {
		t.Fatal("identify_hit hot set differs for the same seed")
	}
	b1, b2 := newBatch(7), newBatch(7)
	if _, x := b1.jobSpecs(2); !bytes.Equal(x, func() []byte { _, y := b2.jobSpecs(2); return y }()) {
		t.Fatal("batch job differs for the same seed")
	}
}

func TestSameSeedSameCapture(t *testing.T) {
	a, err := buildCapture(subRNG(3, streamCapture), 3, streamStagger)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCapture(subRNG(3, streamCapture), 3, streamStagger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.data, b.data) {
		t.Fatal("captures differ for the same seed")
	}
}

func TestMergedCaptureOrderedAndClean(t *testing.T) {
	const n = 3
	c, err := buildCapture(subRNG(5, streamCapture), n, streamStagger)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := pcap.NewReader(bytes.NewReader(c.data))
	if err != nil {
		t.Fatal(err)
	}
	var pkt pcap.Packet
	var last time.Time
	servers := map[string]bool{}
	count := 0
	for {
		err := rd.Next(&pkt)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("packet %d: %v", count, err)
		}
		if pkt.Time.Before(last) {
			t.Fatalf("packet %d at %v precedes its predecessor at %v", count, pkt.Time, last)
		}
		last = pkt.Time
		if pkt.SrcPort == 80 {
			servers[pkt.Src()] = true
		}
		count++
	}
	st := rd.Stats()
	if count != c.packets || st.Skipped != 0 || st.Truncated != 0 || st.TCP != int64(count) {
		t.Fatalf("decoded %d of %d packets, stats %+v", count, c.packets, st)
	}
	for _, s := range c.servers {
		if !servers[s] {
			t.Fatalf("server %s missing from the capture (have %v)", s, servers)
		}
	}
	if len(servers) != n {
		t.Fatalf("capture holds %d servers, want %d", len(servers), n)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

// synthStep builds an open-loop step of n arrivals at rate/s whose i-th
// request is dispatched late(i) after its due time and completes lat(i)
// after it.
func synthStep(rate float64, n int, lat, late func(i int) time.Duration) step {
	start := time.Unix(1000, 0)
	gap := time.Duration(float64(time.Second) / rate)
	ss := make([]sample, n)
	for i := range ss {
		ss[i].due = start.Add(time.Duration(i) * gap)
		ss[i].dispatched = ss[i].due.Add(late(i))
		ss[i].done = ss[i].due.Add(lat(i))
		ss[i].status = 200
	}
	return summarizeStep(rate, start, time.Duration(n)*gap, ss)
}

func TestLadderRule(t *testing.T) {
	const n = 2000
	flat := func(d time.Duration) func(int) time.Duration { return func(int) time.Duration { return d } }
	// A backlog: every request waits a little longer than the last.
	growing := func(i int) time.Duration { return time.Millisecond + time.Duration(i)*50*time.Microsecond }
	good := func(rate float64) step {
		return synthStep(rate, n, flat(2*time.Millisecond), flat(50*time.Microsecond))
	}

	steps := []step{good(800), good(1200), good(1600), synthStep(2000, n, growing, flat(0)), good(2400)}
	rate, idx := maxRate(steps)
	if idx != 2 {
		t.Fatalf("ladder answer is step %d (%v); want step 2, the last before the backlog", idx, rate)
	}
	if rate < 1500 || rate > 1600 {
		t.Fatalf("achieved rate %v, want just under the offered 1600", rate)
	}

	slow := synthStep(1600, n, flat(60*time.Millisecond), flat(0))
	if slow.holds() {
		t.Fatalf("a step with p99 %vms over the %vms limit holds", slow.P99Ms, latencyLimitMs)
	}
	lagging := synthStep(1600, n, flat(3*time.Millisecond), func(i int) time.Duration { return time.Duration(i) * time.Microsecond })
	if lagging.holds() {
		t.Fatalf("a step whose generator falls behind (growth %vms) holds", lagging.LateGrowthMs)
	}
	failing := good(1600)
	failing.Failed = 1
	if _, idx := maxRate([]step{good(800), failing}); idx != 0 {
		t.Fatalf("a step with a failed request holds")
	}
	short := synthStep(800, 999, flat(time.Millisecond), flat(0))
	if _, idx := maxRate([]step{short}); idx != -1 {
		t.Fatal("a step too short for a p99 holds")
	}
}

func TestStageHistogramQuantile(t *testing.T) {
	text := `# TYPE caai_stage_duration_seconds histogram
caai_stage_duration_seconds_bucket{stage="queue_wait",le="1e-06"} 0
caai_stage_duration_seconds_bucket{stage="queue_wait",le="2e-06"} 5
caai_stage_duration_seconds_bucket{stage="queue_wait",le="4e-06"} 90
caai_stage_duration_seconds_bucket{stage="queue_wait",le="+Inf"} 100
caai_stage_duration_seconds_bucket{stage="gather",le="1e-06"} 7
`
	before := parseStageBuckets(text)
	after := parseStageBuckets(text + "\n")
	after["queue_wait"][2].count += 100 // 100 more at <=4µs
	after["queue_wait"][3].count += 100
	if got, ok := histQuantileMs(before["queue_wait"], after["queue_wait"], 0.5); !ok || got != 0.004 {
		t.Fatalf("p50 of the delta = %v, %v; want 0.004ms", got, ok)
	}
	if _, ok := histQuantileMs(before["gather"], before["gather"], 0.5); ok {
		t.Fatal("an unchanged histogram yields a quantile")
	}
}

func TestSelfTimesAccountForOperation(t *testing.T) {
	rec := newRecorder()
	rec.tracing = true
	for i := 0; i < 3; i++ {
		rec.op(i, func() {
			rec.span("a", func() {
				time.Sleep(2 * time.Millisecond)
				rec.span("b", func() { time.Sleep(time.Millisecond) })
			})
			rec.span("c", func() { time.Sleep(time.Millisecond) })
		})
	}
	self := rec.selfTimes()
	var sum, opTotal time.Duration
	for i, s := range rec.spans {
		if self[i] < 0 {
			t.Fatalf("span %s has negative self time %v", s.Name, self[i])
		}
		sum += self[i]
		if s.Name == opSpan {
			opTotal += time.Duration(s.End - s.Start)
		}
	}
	if sum != opTotal {
		t.Fatalf("self times sum to %v, operations took %v", sum, opTotal)
	}
	if _, _, share := rec.opSummary(); share < 0.9 || share > 1 {
		t.Fatalf("attributed share %v, want nearly all of the operation", share)
	}
	if b := rec.selfPerOp()["b"]; b < 1000 {
		t.Fatalf("b's self time per op %vµs, want >= 1ms", b)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric declarations here and in
// the repository's BENCHMARK.json from drifting apart.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics here, %d in BENCHMARK.json", len(endToEnd), len(spec.EndToEnd))
	}
	for i, m := range spec.EndToEnd {
		if endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit {
			t.Errorf("end-to-end %d: %s (%s) here, %s (%s) in BENCHMARK.json", i, endToEnd[i].name, endToEnd[i].unit, m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics here, %d in BENCHMARK.json", len(perLayer), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: %s (%s) here, %s (%s) in BENCHMARK.json", i, perLayer[i].name, perLayer[i].unit, m.Name, m.Unit)
		}
	}
}
