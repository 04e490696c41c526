// Command e2ebench is the repository's end-to-end benchmark: it builds
// nothing itself (run.sh builds it and caai-serve), starts a real
// caai-serve on loopback, drives it with one seeded workload, checks every
// output against an in-process reference, and prints one JSON result line.
//
//	e2ebench -serve bin/caai-serve -workload identify_miss -seed 1 -seconds 10 -trace 0
//
// With -trace 1 it also replays the workload's inputs through each layer's
// public functions with spans around every call, and reports the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// The served model: caai-serve -train modelTrain -seed modelSeed, the
// paper's 100 conditions per (algorithm, wmax) pair.
const (
	modelTrain = 100
	modelSeed  = 2011
	// setupRuns is how many times a run starts the server; setup_s is the
	// median and the last server carries the workload.
	setupRuns = 3
	// generatorProcs is the generator's GOMAXPROCS during the timed phase.
	generatorProcs = 1
)

// bench is one run's settings.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
	outDir   string
	conns    int // connections and request goroutines: nproc
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is what a workload's timed phase against the server yields.
type phase struct {
	e2e       map[string]float64 // end-to-end metrics (names and units in endToEnd)
	ops       int                // completed operations, the per-op denominator
	attempted int
	failed    int // non-2xx responses and transport errors
	// clientOpMs is the median client-observed operation time, for
	// service.wire_us.
	clientOpMs float64
	polls      int // batch: GET /v1/jobs polls issued
	detail     any // workload-specific record for the results file
}

// workload is one traffic mix. prepare runs before the timed phase (and
// its counter scrape), drive is the timed phase, check compares every
// recorded output with the in-process reference, and replay is the traced
// run's per-layer split.
type workload interface {
	prepare(b *bench, c *client) error
	drive(b *bench, c *client) (*phase, error)
	check(b *bench, m *model) (failed int, layer map[string]float64)
	replay(b *bench, m *model, rec *recorder, ph *phase) (map[string]float64, error)
}

func newWorkload(name string, seed int64, seconds time.Duration) (workload, error) {
	switch name {
	case "identify_miss":
		return newMiss(seed, seconds), nil
	case "identify_hit":
		return newHit(seed), nil
	case "batch":
		return newBatch(seed), nil
	case "stream":
		return newStream(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want identify_miss, identify_hit, batch or stream)", name)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var b bench
	var secs int
	var traceFlag int
	flag.StringVar(&b.workload, "workload", "", "identify_miss, identify_hit, batch or stream")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: report the per-layer metrics of a traced replay instead of the end-to-end ones")
	flag.StringVar(&b.serveBin, "serve", "", "caai-serve binary to benchmark")
	flag.StringVar(&b.outDir, "out", ".bench_build", "directory for the results record and the span file")
	flag.Parse()
	if b.serveBin == "" {
		return errors.New("-serve is required")
	}
	if secs < 1 || traceFlag < 0 || traceFlag > 1 {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	b.seconds = time.Duration(secs) * time.Second
	b.trace = traceFlag == 1
	b.conns = runtime.NumCPU()

	w, err := newWorkload(b.workload, b.seed, b.seconds)
	if err != nil {
		return err
	}
	prov := provenance(&b)
	logf("%s seed %d: inputs ready", b.workload, b.seed)

	// Set up the server setupRuns times; the last one serves the run.
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				logf("stopping server: %v", err)
			}
		}
		if srv, err = startServer(b.serveBin, modelTrain, modelSeed); err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	defer srv.stop()
	logf("setup %v", setups)

	c := newClient(srv.base, b.conns)
	defer c.close()
	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	if err := w.prepare(&b, c); err != nil {
		return err
	}
	before, err := srv.scrape(scrapeClient)
	if err != nil {
		return err
	}
	// The generator shares the machine with the server. While timing it
	// runs its goroutines on one processor, which keeps its scheduler
	// from competing with the server's for the cores.
	prev := runtime.GOMAXPROCS(generatorProcs)
	ph, err := w.drive(&b, c)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	after, err := srv.scrape(scrapeClient)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("caai-serve did not shut down cleanly: %w", err)
	}
	ph.e2e["setup_s"] = median(setups)
	ph.e2e["peak_rss_mb"] = float64(after.proc.hwmKiB) / 1024

	m, err := trainModel()
	if err != nil {
		return err
	}
	checkFailed, engineLayer := w.check(&b, m)
	failed := ph.failed + checkFailed

	res := result{
		Correct:   failed == 0,
		Attempted: ph.attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	record := map[string]any{"provenance": prov, "setup_s": setups, "detail": ph.detail,
		"succeeded": res.Attempted - res.Failed}
	if !b.trace {
		for _, em := range endToEnd {
			v, ok := ph.e2e[em.name]
			if !ok || !(v > 0) {
				return fmt.Errorf("%s: end-to-end metric %s not measured (%v)", b.workload, em.name, v)
			}
			res.Metrics[em.name] = metric{v, em.unit}
		}
	} else {
		rec := newRecorder()
		layer, err := w.replay(&b, m, rec, ph)
		if err != nil {
			return err
		}
		for k, v := range serverLayer(before, after, ph) {
			layer[k] = v
		}
		for k, v := range engineLayer {
			layer[k] = v
		}
		layer["core.training_set_s"] = m.trainingSet.Seconds()
		layer["forest.train_s"] = m.forestTrain.Seconds()
		opUs, untracedUs, share := rec.opSummary()
		layer["trace.op_us"], layer["trace.untraced_op_us"], layer["trace.attributed_share"] = opUs, untracedUs, share
		for _, pl := range perLayer {
			res.Metrics[pl.name] = metric{layer[pl.name], pl.unit}
		}
		spans := filepath.Join(b.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := rec.write(spans); err != nil {
			return err
		}
		record["layer"] = layer
		record["self_us_per_op"] = rec.selfPerOp()
		record["spans"] = spans
		logf("spans written to %s", spans)
	}
	record["result"] = res
	if err := writeRecord(&b, record); err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	return out.Encode(res)
}

// endToEnd lists every end-to-end metric, in output order. Each means the
// same on every workload, so every workload reports all of them:
//   - p50_ms: median time of the workload's operation (a request, a
//     batch job from submit to observed done, a capture upload from its
//     first byte to the final summary line; identify_miss: at the
//     reference rate);
//   - ids_per_s: identifications answered per second (identify_miss: the
//     highest sustained rung of its ladder);
//   - mb_per_s: request payload the server takes in per second, at the
//     same rate as ids_per_s (JSON specs, or the capture).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"ids_per_s", "id/s"},
	{"mb_per_s", "MB/s"},
}

// perLayer lists every per-layer metric a traced run reports, in output
// order. A layer that is not on a workload's path reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"service.codec_us", "us"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.job_polls_per_job", "count"},
	{"service.cpu_us_per_op", "us"},
	{"service.gc_cycles_per_kop", "count"},
	{"core.identify_us", "us"},
	{"core.training_set_s", "s"},
	{"forest.train_s", "s"},
	{"engine.ids_per_s", "id/s"},
	{"engine.busy_share", "ratio"},
	{"probe.gather_ms", "ms"},
	{"probe.rounds_per_gather", "count"},
	{"feature.extract_us", "us"},
	{"forest.classify_us", "us"},
	{"forest.classify_batch_ns_per_sample", "ns"},
	{"feature.share_pct", "%"},
	{"forest.share_pct", "%"},
	{"pcap.decode_mb_per_s", "MB/s"},
	{"flow.track_mb_per_s", "MB/s"},
	{"flow.identify_stream_mb_per_s", "MB/s"},
	{"flow.pair_classify_us", "us"},
	{"flow.live_flows_high_water", "count"},
	{"pcap.ring_high_water", "bytes"},
	{"trace.op_us", "us"},
	{"trace.untraced_op_us", "us"},
	{"trace.attributed_share", "ratio"},
}

// serverLayer derives the per-layer figures the server's own counters give
// over the timed phase.
func serverLayer(before, after scrape, ph *phase) map[string]float64 {
	out := map[string]float64{}
	if p50, ok := histQuantileMs(before.stages["queue_wait"], after.stages["queue_wait"], 0.5); ok {
		out["service.queue_wait_p50_ms"] = p50
	}
	if p99, ok := histQuantileMs(before.stages["queue_wait"], after.stages["queue_wait"], 0.99); ok {
		out["service.queue_wait_p99_ms"] = p99
	}
	hits := after.snap.Cache.Hits - before.snap.Cache.Hits
	misses := after.snap.Cache.Misses - before.snap.Cache.Misses
	if hits+misses > 0 {
		out["service.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if ph.ops > 0 {
		out["service.cpu_us_per_op"] = us(after.proc.cpu-before.proc.cpu) / float64(ph.ops)
		out["service.gc_cycles_per_kop"] = float64(after.snap.Runtime.GCCycles-before.snap.Runtime.GCCycles) * 1000 / float64(ph.ops)
	}
	out["flow.live_flows_high_water"] = float64(after.snap.Stream.LiveHighWater)
	out["pcap.ring_high_water"] = float64(after.snap.Stream.RingHighWater)
	return out
}

// model is the in-process twin of the served model, trained with the same
// settings through the same two calls caai.Train makes.
type model struct {
	id          *core.Identifier
	trainingSet time.Duration
	forestTrain time.Duration
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// writeRecord stores the run's full record (provenance, ladder, metrics)
// under outDir/results.
func writeRecord(b *bench, rec map[string]any) error {
	dir := filepath.Join(b.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", b.workload, b.seed, b.trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
