package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/pcap"
	"repro/internal/pcapgen"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// Every input stream is derived from the workload seed through its own
// sub-seed, so the hot set, the miss requests and the batch jobs never
// share request seeds within one run.
const (
	streamMiss     = 1
	streamHit      = 2
	streamBatch    = 3
	streamCapture  = 4
	streamArrival  = 5
	streamHitOrder = 6
)

// subRNG returns the deterministic generator for one input stream.
func subRNG(seed int64, stream int64) *rand.Rand {
	return xrand.New(seed*1_000_003 + stream*7_919 + 1)
}

// identifySpecs draws n identify job specs: the algorithm is uniform over
// the 14 CAAI names, the path condition is sampled from the paper's
// measured RTT/loss database, and every spec gets its own request seed,
// so none of them can be answered from the result cache.
func identifySpecs(rng *rand.Rand, n int) []service.JobSpec {
	algs := cc.CAAINames()
	db := netem.MeasuredDatabase()
	specs := make([]service.JobSpec, n)
	for i := range specs {
		alg := algs[rng.Intn(len(algs))]
		c := db.Sample(rng)
		specs[i] = service.JobSpec{
			Server: service.ServerSpec{Algorithm: alg},
			Condition: service.ConditionSpec{
				MeanRTTMs:   float64(c.MeanRTT) / float64(time.Millisecond),
				RTTStdDevMs: float64(c.RTTStdDev) / float64(time.Millisecond),
				LossRate:    c.LossRate,
			},
			Seed: 1 + rng.Int63n(1<<53),
		}
	}
	return specs
}

// specServer and specCond materialize a spec the way the service does
// (websim testbed defaults; RTTs converted from milliseconds with the same
// float arithmetic, a zero mean RTT meaning 50 ms), so an in-process
// reference sees exactly the inputs the server probes.
func specServer(s service.JobSpec) *websim.Server { return websim.Testbed(s.Server.Algorithm) }

func specCond(s service.JobSpec) netem.Condition {
	mean := s.Condition.MeanRTTMs
	if mean == 0 {
		mean = 50
	}
	return netem.Condition{
		MeanRTT:   time.Duration(mean * float64(time.Millisecond)),
		RTTStdDev: time.Duration(s.Condition.RTTStdDevMs * float64(time.Millisecond)),
		LossRate:  s.Condition.LossRate,
	}
}

// capture is the stream workload's input: one header-only classic pcap
// holding many servers' probe sessions interleaved in time.
type capture struct {
	data    []byte
	packets int
	// servers[k] is server k's "ip:port" endpoint in the capture;
	// results[k] is the direct gathering pcapgen returned for it.
	servers []string
	results []*probe.Result
}

// captureEpoch is the first server's base time.
var captureEpoch = time.Unix(1704067200, 0).UTC()

// buildCapture probes n testbed servers (lossless path) through pcapgen,
// one Generate call per server with base times stagger apart, and merges
// the sessions by timestamp so that many flows are live at once. pcapgen numbers the addresses of every call
// from zero, so the merge rewrites the third and fourth octets of both
// addresses to server k's index (pcapgen frames carry no checksums).
// Algorithms are dealt in rounds of a seeded permutation of the CAAI
// names: a session's size depends on its algorithm alone, so for n a
// multiple of the name count every seed yields a capture of the same
// size, and the upload's timing does not move with the seed.
func buildCapture(rng *rand.Rand, n int, stagger time.Duration) (*capture, error) {
	if n < 1 || n > 60000 {
		return nil, fmt.Errorf("capture needs 1..60000 servers, got %d", n)
	}
	algs := cc.CAAINames()
	c := &capture{servers: make([]string, n), results: make([]*probe.Result, n)}
	parts := make([][]byte, n)
	perm := rng.Perm(len(algs))
	for k := range parts {
		var buf bytes.Buffer
		spec := pcapgen.ServerSpec{Algorithm: algs[perm[k%len(algs)]], Seed: 1 + rng.Int63n(1<<53)}
		res, err := pcapgen.Generate(&buf, []pcapgen.ServerSpec{spec}, pcapgen.Options{
			BaseTime: captureEpoch.Add(time.Duration(k) * stagger),
		})
		if err != nil {
			return nil, err
		}
		parts[k] = buf.Bytes()
		c.results[k] = res[0]
		hi, lo := octets(k)
		c.servers[k] = fmt.Sprintf("10.0.%d.%d:80", hi, lo)
	}
	var out bytes.Buffer
	n2, err := mergeCaptures(&out, parts)
	if err != nil {
		return nil, err
	}
	c.data, c.packets = out.Bytes(), n2
	return c, nil
}

// octets encodes server index k as the last two address octets (k+1, so
// no address ends in .0.0).
func octets(k int) (hi, lo byte) { return byte((k + 1) >> 8), byte(k + 1) }

// Ethernet + IPv4 offsets of the source and destination addresses.
const (
	ipSrcOff = 14 + 12
	ipDstOff = 14 + 16
)

// mergeCaptures k-way merges classic pcaps by record timestamp (ties go
// to the lower part index), readdressing part k's frames to index k. It
// returns the number of records written.
func mergeCaptures(w io.Writer, parts [][]byte) (int, error) {
	pw, err := pcap.NewWriter(w, pcap.LinkEthernet, pcapgen.DefaultSnapLen)
	if err != nil {
		return 0, err
	}
	h := make(recHeap, 0, len(parts))
	for k, p := range parts {
		rd, err := pcap.NewReader(bytes.NewReader(p))
		if err != nil {
			return 0, fmt.Errorf("part %d: %w", k, err)
		}
		e := &recEntry{k: k, rd: rd}
		if err := rd.NextRaw(&e.rec); err != nil {
			return 0, fmt.Errorf("part %d: empty capture: %w", k, err)
		}
		h = append(h, e)
	}
	heap.Init(&h)
	var frame []byte
	written := 0
	for len(h) > 0 {
		e := h[0]
		frame = append(frame[:0], e.rec.Data...)
		if len(frame) < ipDstOff+4 {
			return written, fmt.Errorf("part %d: frame of %d bytes is not Ethernet/IPv4", e.k, len(frame))
		}
		hi, lo := octets(e.k)
		frame[ipSrcOff+2], frame[ipSrcOff+3] = hi, lo
		frame[ipDstOff+2], frame[ipDstOff+3] = hi, lo
		if err := pw.WritePacket(e.rec.Time, e.rec.OrigLen, frame); err != nil {
			return written, err
		}
		written++
		switch err := e.rd.NextRaw(&e.rec); err {
		case nil:
			heap.Fix(&h, 0)
		case io.EOF:
			heap.Pop(&h)
		default:
			return written, fmt.Errorf("part %d: %w", e.k, err)
		}
	}
	return written, nil
}

// recEntry is one part's next undelivered record. rec.Data aliases the
// part reader's buffer, which stays put until that reader advances.
type recEntry struct {
	k   int
	rd  *pcap.Reader
	rec pcap.RawRecord
}

type recHeap []*recEntry

func (h recHeap) Len() int { return len(h) }
func (h recHeap) Less(i, j int) bool {
	if !h[i].rec.Time.Equal(h[j].rec.Time) {
		return h[i].rec.Time.Before(h[j].rec.Time)
	}
	return h[i].k < h[j].k
}
func (h recHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x any)   { *h = append(*h, x.(*recEntry)) }
func (h *recHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
