package flow

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/pcapgen"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// pktEvent is one generated capture packet, before time-sorting.
type pktEvent struct {
	at    time.Duration
	spec  pcap.FrameSpec
	order int
}

// synthCapture generates a multi-flow classic pcap from a seed: flows
// with handshakes, data rounds, and occasional timeout signatures,
// interleaved in time. Four clients and three servers make twelve
// (client IP, server) groups, so a group's flows overlap and pairing
// has material. Every intra-flow gap stays under 900ms -- below the
// smallest online idle-expiry threshold (1s) -- so online and offline
// reconstruction must agree exactly.
func synthCapture(seed int64, nflows int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var events []pktEvent
	add := func(at time.Duration, spec pcap.FrameSpec) {
		events = append(events, pktEvent{at: at, spec: spec, order: len(events)})
	}
	for f := 0; f < nflows; f++ {
		client := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 1, byte(10 + f%4)}), uint16(40000+f))
		server := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 168, 0, byte(1 + f%3)}), 80)
		start := time.Duration(rng.Intn(20000)) * time.Millisecond
		rtt := time.Duration(100+rng.Intn(200)) * time.Millisecond
		mss := uint16(500 + rng.Intn(1000))
		jitter := time.Duration(rng.Intn(20)) * time.Millisecond
		rounds := 3 + rng.Intn(6)
		addTransfer(add, client, server, start, rtt, jitter, mss, rounds, rng.Intn(2) == 0)
	}
	return encodeEvents(events)
}

// addTransfer generates one server-to-client bulk transfer: a handshake
// at start, rounds data rounds of a doubling window from jitter after
// the handshake, and -- when timeout is set -- the CAAI timeout
// signature: three RTTs of silence, a retransmission, then
// trace.ValidPostRounds rounds of new data, so the trace is valid.
func addTransfer(add func(time.Duration, pcap.FrameSpec), client, server netip.AddrPort,
	start, rtt, jitter time.Duration, mss uint16, rounds int, timeout bool) {
	add(start, pcap.FrameSpec{Src: client, Dst: server, Seq: 0, Flags: pcap.FlagSYN,
		Opt: pcap.TCPOptions{HasMSS: true, MSS: mss}})
	add(start+rtt/2, pcap.FrameSpec{Src: server, Dst: client, Seq: 0, Ack: 1,
		Flags: pcap.FlagSYN | pcap.FlagACK, Opt: pcap.TCPOptions{HasMSS: true, MSS: mss}})
	add(start+rtt, pcap.FrameSpec{Src: client, Dst: server, Seq: 1, Ack: 1, Flags: pcap.FlagACK})

	at := start + rtt + jitter
	seq := uint32(1)
	data := func(at time.Duration, w int) {
		for i := 0; i < w; i++ {
			add(at+time.Duration(i)*time.Millisecond, pcap.FrameSpec{
				Src: server, Dst: client, Seq: seq, Ack: 1, Flags: pcap.FlagACK,
				PayloadLen: int(mss)})
			seq += uint32(mss)
		}
	}
	w := 2
	for r := 0; r < rounds; r++ {
		data(at, w)
		at += rtt
		if w < 64 {
			w *= 2
		}
	}
	if !timeout {
		return
	}
	at += 3 * rtt
	add(at, pcap.FrameSpec{Src: server, Dst: client, Seq: seq - uint32(mss), Ack: 1,
		Flags: pcap.FlagACK, PayloadLen: int(mss)})
	w = 1
	for r := 0; r < trace.ValidPostRounds; r++ {
		at += rtt
		data(at, w)
		if w < 8 {
			w *= 2
		}
	}
}

// encodeEvents sorts generated packets by time (ties in generation
// order) and writes them as a classic Ethernet pcap.
func encodeEvents(events []pktEvent) []byte {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].order < events[j].order
	})
	base := time.Unix(1700000000, 0).UTC()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkEthernet, 0)
	if err != nil {
		panic(err)
	}
	for i := range events {
		frame := pcap.AppendFrame(nil, &events[i].spec)
		if err := w.WritePacket(base.Add(events[i].at), len(frame), frame); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// streamCollect runs data through a Stream and returns the emitted
// flows (sorted in capture order) and stats.
func streamCollect(t testing.TB, data []byte, cfg StreamConfig, chunk int) ([]*FlowTrace, CaptureStats) {
	t.Helper()
	var got []*FlowTrace
	st := NewStream(context.Background(), cfg, func(f *FlowTrace) { got = append(got, f) })
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := st.Write(data[off:end]); err != nil {
			t.Fatalf("stream write: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	sortFlows(got)
	return got, st.Stats()
}

// equivalentFlows asserts the two flow sets are identical, trace for
// trace.
func equivalentFlows(t testing.TB, offline, online []*FlowTrace, label string) {
	t.Helper()
	if len(offline) != len(online) {
		t.Fatalf("%s: offline %d flows, online %d", label, len(offline), len(online))
	}
	for i := range offline {
		if !reflect.DeepEqual(offline[i], online[i]) {
			t.Fatalf("%s: flow %d diverged:\noffline %+v\n online %+v", label, i, *offline[i], *online[i])
		}
	}
}

// TestStreamMatchesOffline is the online == offline equivalence
// property: on the same capture, the sharded streaming pipeline (epoch
// expiry, incremental sinks, any shard count, any write chunking) must
// emit exactly the FlowTrace set the offline Finish path produces.
func TestStreamMatchesOffline(t *testing.T) {
	data := synthCapture(42, 40)
	cfg := Config{MaxFlows: 1 << 16, MaxEmitted: -1}
	offline, offStats, err := Reassemble(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{1777, 1 << 20} {
			online, stats := streamCollect(t, data, StreamConfig{
				Tracker: cfg, Shards: shards, RingBytes: 64 << 10, BatchPackets: 32}, chunk)
			label := "shards=" + itoa(shards) + " chunk=" + itoa(chunk)
			equivalentFlows(t, offline, online, label)
			if stats.Flows != offStats.Flows || stats.TCPSegments != offStats.TCPSegments ||
				stats.Packets != offStats.Packets {
				t.Fatalf("%s: stats %+v, offline %+v", label, stats, offStats)
			}
		}
	}
}

// TestStreamExpiryActuallyFires guards the equivalence test's teeth: on
// the synthetic captures, idle expiry must emit most flows mid-stream,
// not leave everything to the Finish drain.
func TestStreamExpiryActuallyFires(t *testing.T) {
	data := synthCapture(7, 40)
	var m StreamMetrics
	m.Tracker.Live = &telemetry.Gauge{}
	m.Tracker.LiveHighWater = &telemetry.Gauge{}
	m.Tracker.Epochs = &telemetry.Counter{}
	m.Tracker.Expired = &telemetry.Counter{}
	m.Flows = &telemetry.Counter{}
	_, stats := streamCollect(t, data, StreamConfig{
		Tracker: Config{MaxFlows: 1 << 16, MaxEmitted: -1}, Shards: 4, Metrics: &m}, 1<<20)
	if m.Tracker.Expired.Load() < stats.Flows/2 {
		t.Fatalf("only %d of %d flows idle-expired; capture spread should expire most", m.Tracker.Expired.Load(), stats.Flows)
	}
	if m.Tracker.Epochs.Load() == 0 || m.Tracker.LiveHighWater.Load() == 0 {
		t.Fatalf("epoch metrics not threaded: epochs=%d highwater=%d", m.Tracker.Epochs.Load(), m.Tracker.LiveHighWater.Load())
	}
	if m.Tracker.Live.Load() != 0 {
		t.Fatalf("live gauge after close = %d, want 0", m.Tracker.Live.Load())
	}
	if m.Flows.Load() != stats.Flows {
		t.Fatalf("flows counter %d, stats %d", m.Flows.Load(), stats.Flows)
	}
}

// FuzzOnlineOfflineEquivalence fuzzes the equivalence property over
// generated captures: whatever flow mix, timing spread, and shard count
// the seed picks, online must equal offline -- the flow set, and the
// classified pair list of an identify stream against the sequential
// Tracker.Finish -> Pair -> IdentifyResult reference.
func FuzzOnlineOfflineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(2))
	f.Add(int64(99), uint8(30), uint8(5))
	f.Add(int64(-7), uint8(1), uint8(1))
	model := loadGoldenModel(f)
	f.Fuzz(func(t *testing.T, seed int64, nflows, shards uint8) {
		n := int(nflows)%48 + 1
		data := synthCapture(seed, n)
		cfg := Config{MaxFlows: 1 << 16, MaxEmitted: -1}
		scfg := StreamConfig{Tracker: cfg, Shards: int(shards)%8 + 1, RingBytes: 32 << 10}
		offline, _, err := Reassemble(bytes.NewReader(data), cfg)
		if err != nil {
			t.Fatal(err)
		}
		online, _ := streamCollect(t, data, scfg, 4096)
		equivalentFlows(t, offline, online, "fuzz")
		samePairs(t, referencePairs(t, data, cfg, model),
			streamPairs(t, data, model, IdentifyStreamOptions{Stream: scfg}, 4096), "fuzz")
	})
}

// TestStreamSoakLiveFlowsBounded is the 100k-concurrent-flow soak: two
// waves of 110k flows each pass through the pipeline, and the live-flow
// gauge must plateau at one wave's width -- idle expiry reclaims wave
// one before wave two peaks, so memory stays flat instead of growing
// with total flows seen.
func TestStreamSoakLiveFlowsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const wave = 110_000
	base := time.Unix(1700000000, 0).UTC()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkEthernet, 0)
	if err != nil {
		t.Fatal(err)
	}
	server := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 168, 0, 1}), 80)
	var frame []byte
	writeWave := func(start time.Duration) {
		// All of a wave's flows are concurrently live: every flow sends
		// at start and again 900ms later, then goes idle.
		for pass := 0; pass < 2; pass++ {
			at := start + time.Duration(pass)*900*time.Millisecond
			for i := 0; i < wave; i++ {
				client := netip.AddrPortFrom(
					netip.AddrFrom4([4]byte{10, 1, byte(i >> 16), byte(i >> 8)}), uint16(20000+i%256))
				frame = pcap.AppendFrame(frame[:0], &pcap.FrameSpec{
					Src: server, Dst: client, Seq: uint32(pass * 100), Ack: 1,
					Flags: pcap.FlagACK, PayloadLen: 100})
				if err := w.WritePacket(base.Add(at), len(frame), frame); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Heartbeats move capture time 4s forward so epoch sweeps expire
		// the wave (threshold: max(8 x 200ms DefaultRTT, 1s) = 1.6s).
		hb := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 9, 9}), 9999)
		for ms := int64(1000); ms <= 4800; ms += 200 {
			frame = pcap.AppendFrame(frame[:0], &pcap.FrameSpec{
				Src: hb, Dst: server, Seq: uint32(ms), Ack: 1, Flags: pcap.FlagACK, PayloadLen: 1})
			if err := w.WritePacket(base.Add(start+time.Duration(ms)*time.Millisecond), len(frame), frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeWave(0)
	writeWave(6 * time.Second)

	var m StreamMetrics
	m.Tracker.Live = &telemetry.Gauge{}
	m.Tracker.LiveHighWater = &telemetry.Gauge{}
	m.Tracker.Expired = &telemetry.Counter{}
	var flows int64
	st := NewStream(context.Background(), StreamConfig{
		Tracker: Config{MaxFlows: 200_000},
		Metrics: &m,
	}, func(*FlowTrace) { flows++ })
	if _, err := io.Copy(st, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	high := m.Tracker.LiveHighWater.Load()
	if high < 100_000 {
		t.Fatalf("live high water %d, want >= 100k concurrent flows", high)
	}
	if high > wave+4096 {
		t.Fatalf("live high water %d for %d-flow waves: wave one was not reclaimed (gauge not flat)", high, wave)
	}
	if m.Tracker.Live.Load() != 0 {
		t.Fatalf("live gauge after close = %d, want 0", m.Tracker.Live.Load())
	}
	if got := st.Stats().Flows; got < 2*wave {
		t.Fatalf("flows tracked = %d, want >= %d", got, 2*wave)
	}
	if flows != st.Stats().Flows-st.Stats().DroppedFlows {
		t.Fatalf("emitted %d flows, stats %+v", flows, st.Stats())
	}
}

// TestStreamAbortUnblocksWriter pins cancellation: a producer blocked
// on a full ring must unwind promptly when the stream aborts.
func TestStreamAbortUnblocksWriter(t *testing.T) {
	st := NewStream(context.Background(), StreamConfig{RingBytes: 4 << 10}, func(*FlowTrace) {})
	// No valid pcap header: the decoder waits for bytes forever, so
	// writes beyond the ring capacity block.
	junk := make([]byte, 64<<10)
	done := make(chan error, 1)
	go func() {
		_, err := st.Write(junk)
		done <- err
	}()
	boom := errors.New("client went away")
	st.Abort(boom)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("blocked Write returned nil after Abort")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write still blocked after Abort")
	}
}

// TestStreamContextCancelUnblocks pins the other cancellation path: the
// caller's context, not an explicit Abort.
func TestStreamContextCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStream(ctx, StreamConfig{RingBytes: 4 << 10}, func(*FlowTrace) {})
	junk := make([]byte, 64<<10)
	done := make(chan error, 1)
	go func() {
		_, err := st.Write(junk)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("blocked Write returned nil after context cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write still blocked after context cancel")
	}
	if err := st.Close(); err == nil {
		t.Fatal("Close after cancel returned nil error")
	}
}

// pairView is the comparable form of one classified pair.
type pairView struct {
	Server, ClientA, ClientB string
	Label                    string
	Confidence               float64
	Valid                    bool
}

func viewPairs(pairs []FlowIdentification) []pairView {
	out := make([]pairView, len(pairs))
	for i, p := range pairs {
		out[i] = pairView{Server: p.A.Server, ClientA: p.A.Client,
			Label: p.ID.Label, Confidence: p.ID.Confidence, Valid: p.ID.Valid}
		if p.B != nil {
			out[i].ClientB = p.B.Client
		}
	}
	return out
}

// referencePairs is the sequential reference every sharded identify
// path must reproduce: one offline tracker (Tracker.Finish), Pair, and
// IdentifyResult per pair.
func referencePairs(t testing.TB, data []byte, cfg Config, model classify.Classifier) []pairView {
	t.Helper()
	rd, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(cfg)
	var pkt pcap.Packet
	for rd.Next(&pkt) == nil {
		tr.Observe(&pkt)
	}
	pairs := Pair(tr.Finish())
	id := core.NewIdentifier(model)
	for i := range pairs {
		pairs[i].ID = id.IdentifyResult(pairResult(&pairs[i]))
	}
	return viewPairs(pairs)
}

// streamPairs runs data through an identify stream in chunk-sized
// writes and returns its results in capture order.
func streamPairs(t testing.TB, data []byte, model classify.Classifier, opts IdentifyStreamOptions, chunk int) []pairView {
	t.Helper()
	var got []FlowIdentification
	st := NewIdentifyStream(context.Background(), model, opts, func(fi FlowIdentification) {
		got = append(got, fi)
	})
	for off := 0; off < len(data); off += chunk {
		if _, err := st.Write(data[off:min(off+chunk, len(data))]); err != nil {
			t.Fatalf("stream write: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	sort.Slice(got, func(i, j int) bool { return flowLess(got[i].A, got[j].A) })
	return viewPairs(got)
}

// samePairs asserts two pair lists agree pair for pair.
func samePairs(t testing.TB, want, got []pairView, label string) {
	t.Helper()
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g pairView
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("%s: %d pairs, reference %d; pair %d:\n got %+v\nwant %+v", label, len(got), len(want), i, g, w)
		}
	}
}

// TestIdentifyStreamMatchesOffline runs a real multi-server pcapgen
// capture through the streaming classify path at every shard count from
// 1 to 8, and through IdentifyCapture, and expects the sequential
// reference's pair list exactly: same A and B clients, label and
// confidence.
func TestIdentifyStreamMatchesOffline(t *testing.T) {
	model := loadGoldenModel(t)
	specs := []pcapgen.ServerSpec{
		{Algorithm: "RENO", Seed: 21},
		{Algorithm: "CUBIC2", Seed: 22},
		{Algorithm: "VEGAS", Seed: 23},
	}
	var buf bytes.Buffer
	if _, err := pcapgen.Generate(&buf, specs, pcapgen.Options{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want := referencePairs(t, data, Config{}, model)
	paired := 0
	for _, p := range want {
		if p.ClientB != "" {
			paired++
		}
	}
	if paired != len(specs) {
		t.Fatalf("reference paired %d flows, want one pair per server (%d)", paired, len(specs))
	}
	for shards := 1; shards <= 8; shards++ {
		opts := IdentifyStreamOptions{Stream: StreamConfig{Shards: shards, RingBytes: 64 << 10, BatchPackets: 32}}
		samePairs(t, want, streamPairs(t, data, model, opts, 48<<10+7), "shards="+itoa(shards))
	}
	pairs, _, err := IdentifyCapture(bytes.NewReader(data), model, IdentifyStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, want, viewPairs(pairs), "IdentifyCapture")
}

// TestIdentifyStreamPairsInStartOrder pins flow-start-order pairing when
// a group's flows close out of order: environment A starts first and
// runs long, environment B starts later and idle-expires while A is
// still live. The stream must hold B back until A closes, then pair
// (A, B) as the reference does, instead of classifying B first.
func TestIdentifyStreamPairsInStartOrder(t *testing.T) {
	model := loadGoldenModel(t)
	var events []pktEvent
	add := func(at time.Duration, spec pcap.FrameSpec) {
		events = append(events, pktEvent{at: at, spec: spec, order: len(events)})
	}
	server := netip.MustParseAddrPort("192.168.0.1:80")
	a := netip.MustParseAddrPort("10.0.0.1:40000")
	b := netip.MustParseAddrPort("10.0.0.1:40001")
	rtt := 100 * time.Millisecond
	addTransfer(add, a, server, 0, rtt, 0, 1000, 6, true)
	addTransfer(add, b, server, 500*time.Millisecond, rtt, 0, 1000, 3, false)
	data := encodeEvents(events)

	want := referencePairs(t, data, Config{}, model)
	if len(want) != 1 || want[0].ClientA != a.String() || want[0].ClientB != b.String() {
		t.Fatalf("reference pairs %+v, want one (%s, %s) pair", want, a, b)
	}
	var m StreamMetrics
	m.Tracker.Expired = &telemetry.Counter{}
	for shards := 1; shards <= 4; shards++ {
		opts := IdentifyStreamOptions{Stream: StreamConfig{Shards: shards, Metrics: &m}}
		samePairs(t, want, streamPairs(t, data, model, opts, 1<<20), "shards="+itoa(shards))
	}
	if m.Tracker.Expired.Load() == 0 {
		t.Fatal("B never idle-expired: the capture no longer closes B before A")
	}
}
