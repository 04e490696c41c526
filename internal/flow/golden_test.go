package flow

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pcapgen"
	"repro/internal/probe"
)

// -update regenerates the golden capture fixtures:
//
//	go test ./internal/flow -run TestGolden -update
//
// Do this only when a deliberate decoder/reconstruction change
// invalidates them, and say so in the commit.
var update = flag.Bool("update", false, "regenerate golden capture fixtures")

const (
	goldenDir     = "testdata/golden"
	goldenCapture = "capture.pcap.gz" // gzip keeps the committed fixture ~15x smaller
	goldenFlows   = "flows.json"
)

// goldenSpecs are the servers baked into the committed capture: a classic
// AIMD, the modern default, and the delay-based special case (no
// environment-B timeout). The small wmax keeps the committed file small.
func goldenSpecs() []pcapgen.ServerSpec {
	return []pcapgen.ServerSpec{
		{Algorithm: "RENO", Seed: 21},
		{Algorithm: "CUBIC2", Seed: 22},
		{Algorithm: "VEGAS", Seed: 23},
	}
}

func goldenOptions() pcapgen.Options {
	return pcapgen.Options{
		// The small wmax and trimmed pre-round budget keep the committed
		// capture small while still exercising timeout detection, the
		// post-timeout series, and the VEGAS no-timeout signature.
		Probe: probe.Config{WmaxLadder: []int{64}, MaxPreRounds: 24},
	}
}

// goldenFlow pins one reconstructed flow bit for bit.
type goldenFlow struct {
	Client      string `json:"client"`
	Server      string `json:"server"`
	Packets     int64  `json:"packets"`
	DataPackets int64  `json:"data_packets"`
	Retransmits int64  `json:"retransmits"`
	RTTMs       int64  `json:"rtt_ms"`
	MSS         int    `json:"mss"`
	SawSYN      bool   `json:"saw_syn"`
	TimedOut    bool   `json:"timed_out"`
	Wmax        int    `json:"wmax"`
	Pre         []int  `json:"pre"`
	Post        []int  `json:"post,omitempty"`
}

// goldenPair pins one paired classification.
type goldenPair struct {
	Server     string    `json:"server"`
	Label      string    `json:"label,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	Special    string    `json:"special,omitempty"`
	Valid      bool      `json:"valid"`
	Vector     []float64 `json:"vector,omitempty"`
}

type goldenCaptureFile struct {
	Description string       `json:"description"`
	Stats       CaptureStats `json:"stats"`
	Flows       []goldenFlow `json:"flows"`
	Pairs       []goldenPair `json:"pairs"`
}

func toGoldenFlow(f *FlowTrace) goldenFlow {
	g := goldenFlow{
		Client:      f.Client,
		Server:      f.Server,
		Packets:     f.Packets,
		DataPackets: f.DataPackets,
		Retransmits: f.Retransmits,
		RTTMs:       f.RTT.Milliseconds(),
		MSS:         f.MSS,
		SawSYN:      f.SawSYN,
	}
	if f.Trace != nil {
		g.TimedOut = f.Trace.TimedOut
		g.Wmax = f.Trace.WmaxThreshold
		// nil-preserving copies: the fixture JSON round-trips empty
		// series as absent, so DeepEqual must compare nils to nils.
		g.Pre = append([]int(nil), f.Trace.Pre...)
		g.Post = append([]int(nil), f.Trace.Post...)
	}
	return g
}

// TestGoldenCapture asserts the whole passive pipeline is bit-stable
// against a committed capture file: decoding reproduces the recorded
// per-flow packet counts, flow reconstruction reproduces the recorded
// window series exactly, and the committed model classifies the pairs to
// the recorded labels, confidences, and feature vectors. This is the
// capture-side sibling of internal/eval's golden trace fixtures.
func TestGoldenCapture(t *testing.T) {
	model := loadGoldenModel(t)

	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := pcapgen.Generate(&buf, goldenSpecs(), goldenOptions()); err != nil {
			t.Fatal(err)
		}
		var gz bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
		if _, err := zw.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, goldenCapture), gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		pairs, stats, err := IdentifyCapture(bytes.NewReader(buf.Bytes()), model, IdentifyStreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		file := goldenCaptureFile{
			Description: "bit-stability fixtures for capture ingestion: committed pcap, reconstructed flows, and committed-model classifications",
			Stats:       stats,
		}
		for _, p := range pairs {
			file.Pairs = append(file.Pairs, goldenPair{
				Server:     p.A.Server,
				Label:      p.ID.Label,
				Confidence: p.ID.Confidence,
				Special:    specialString(p),
				Valid:      p.ID.Valid,
				Vector:     vectorOf(p),
			})
			file.Flows = append(file.Flows, toGoldenFlow(p.A))
			if p.B != nil {
				file.Flows = append(file.Flows, toGoldenFlow(p.B))
			}
		}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, goldenFlows), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes) and %s (%d flows, %d pairs)",
			goldenCapture, buf.Len(), goldenFlows, len(file.Flows), len(file.Pairs))
		return
	}

	gzData, err := os.ReadFile(filepath.Join(goldenDir, goldenCapture))
	if err != nil {
		t.Fatalf("golden capture missing (run with -update to create it): %v", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gzData))
	if err != nil {
		t.Fatal(err)
	}
	capture, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenCaptureFile
	data, err := os.ReadFile(filepath.Join(goldenDir, goldenFlows))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	pairs, stats, err := IdentifyCapture(bytes.NewReader(capture), model, IdentifyStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != want.Stats {
		t.Errorf("capture stats drifted:\n got %+v\nwant %+v", stats, want.Stats)
	}
	var flows []goldenFlow
	for _, p := range pairs {
		flows = append(flows, toGoldenFlow(p.A))
		if p.B != nil {
			flows = append(flows, toGoldenFlow(p.B))
		}
	}
	if len(flows) != len(want.Flows) {
		t.Fatalf("reconstructed %d flows, fixture has %d", len(flows), len(want.Flows))
	}
	for i, g := range flows {
		if !reflect.DeepEqual(g, want.Flows[i]) {
			t.Errorf("flow %d drifted:\n got %+v\nwant %+v", i, g, want.Flows[i])
		}
	}
	if len(pairs) != len(want.Pairs) {
		t.Fatalf("classified %d pairs, fixture has %d", len(pairs), len(want.Pairs))
	}
	for i, p := range pairs {
		w := want.Pairs[i]
		if p.A.Server != w.Server || p.ID.Label != w.Label || p.ID.Valid != w.Valid || specialString(p) != w.Special {
			t.Errorf("pair %d drifted: got %s %s valid=%v, want %s %s valid=%v",
				i, p.A.Server, p.ID.Label, p.ID.Valid, w.Server, w.Label, w.Valid)
		}
		if math.Float64bits(p.ID.Confidence) != math.Float64bits(w.Confidence) {
			t.Errorf("pair %d confidence drifted: got %v, want %v", i, p.ID.Confidence, w.Confidence)
		}
		got := vectorOf(p)
		if len(got) != len(w.Vector) {
			t.Fatalf("pair %d vector length %d, want %d", i, len(got), len(w.Vector))
		}
		for f := range got {
			if math.Float64bits(got[f]) != math.Float64bits(w.Vector[f]) {
				t.Errorf("pair %d feature %d drifted: got %v, want %v", i, f, got[f], w.Vector[f])
			}
		}
	}
}

func specialString(p FlowIdentification) string {
	if p.ID.Special == 0 {
		return ""
	}
	return p.ID.Special.String()
}

func vectorOf(p FlowIdentification) []float64 {
	if !p.ID.Valid || p.ID.Label == "" {
		return nil
	}
	return append([]float64{}, p.ID.Vector.Slice()...)
}
