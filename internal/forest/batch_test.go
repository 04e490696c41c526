package forest

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// assertBatchMatchesScalar checks the full batch/scalar contract on one
// block: labels, confidences, and vote counts must be bit-identical to
// per-vector Classify/Votes, including short vectors and non-finite
// features.
func assertBatchMatchesScalar(t testing.TB, f *Forest, vecs [][]float64) {
	t.Helper()
	m := len(vecs)
	labels := make([]string, m)
	confs := make([]float64, m)
	f.ClassifyBatch(vecs, labels, confs)
	votes := f.VotesBatch(nil, vecs, nil)
	nc := f.NumClasses()
	if len(votes) != m*nc {
		t.Fatalf("VotesBatch returned %d entries, want %d", len(votes), m*nc)
	}
	for i, v := range vecs {
		wantLabel, wantConf := f.Classify(v)
		if labels[i] != wantLabel || math.Float64bits(confs[i]) != math.Float64bits(wantConf) {
			t.Fatalf("vec %d: batch (%s, %v) != scalar (%s, %v)", i, labels[i], confs[i], wantLabel, wantConf)
		}
		sv := f.Votes(v)
		for c, n := range sv {
			if votes[i*nc+c] != int32(n) {
				t.Fatalf("vec %d class %d: batch votes %d != scalar %d", i, c, votes[i*nc+c], n)
			}
		}
	}
}

// randomBlock builds a block mixing in-distribution vectors with hostile
// ones: out-of-distribution magnitudes, short vectors, empty vectors, and
// NaN/±Inf features.
func randomBlock(rng *rand.Rand, m, width int) [][]float64 {
	vecs := make([][]float64, m)
	for i := range vecs {
		switch rng.Intn(8) {
		case 0: // short vector: zero votes per the scalar contract
			vecs[i] = make([]float64, rng.Intn(width))
		case 1: // non-finite features
			v := make([]float64, width)
			for d := range v {
				switch rng.Intn(4) {
				case 0:
					v[d] = math.NaN()
				case 1:
					v[d] = math.Inf(1)
				case 2:
					v[d] = math.Inf(-1)
				default:
					v[d] = rng.NormFloat64() * 10
				}
			}
			vecs[i] = v
		default:
			v := make([]float64, width)
			for d := range v {
				v[d] = rng.NormFloat64() * 12
			}
			vecs[i] = v
		}
	}
	return vecs
}

// TestClassifyBatchMatchesScalar pins the batched kernel against the
// scalar walk on hostile random blocks: blocks below batchMin exercise the
// scalar fallback inside ClassifyBatchInto, larger ones the packed kernel.
func TestClassifyBatchMatchesScalar(t *testing.T) {
	ds := clusterDataset(t, 40, 101)
	f := Train(ds, Config{Trees: 31, Subspace: 2, Seed: 102})
	if !f.batchable {
		t.Fatal("trained model must be batchable")
	}
	rng := rand.New(rand.NewSource(103))
	for _, m := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 33, 64, 129} {
		assertBatchMatchesScalar(t, f, randomBlock(rng, m, 3))
	}
}

// TestPortableKernelMatchesScalar pins the portable kernel, the only
// batched kernel, against the scalar walk on a second forest, with single
// and partial 64-vector chunks and blocks spanning several.
func TestPortableKernelMatchesScalar(t *testing.T) {
	ds := clusterDataset(t, 40, 301)
	f := Train(ds, Config{Trees: 31, Subspace: 2, Seed: 302})
	rng := rand.New(rand.NewSource(303))
	for _, m := range []int{4, 8, 33, 64, 129} {
		assertBatchMatchesScalar(t, f, randomBlock(rng, m, 3))
	}
}

// dyadicDataset builds a dataset whose feature values sit on a k/4 grid,
// so every split threshold (a midpoint) sits on the k/8 grid and inputs
// drawn from that grid hit thresholds exactly.
func dyadicDataset(t testing.TB, n int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"x", "y", "z"}
	var samples []Sample
	for li, label := range labels {
		for i := 0; i < n; i++ {
			v := make([]float64, 4)
			for d := range v {
				v[d] = float64(li*32+rng.Intn(24)) / 4
			}
			samples = append(samples, Sample{Features: v, Label: label})
		}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestClassifyBatchQuantizedMatchesScalar runs the batch/scalar contract
// on a dyadic forest, whose thresholds all sit on the k/8 grid, with some
// features landing exactly on that grid so the x == thr tie-break goes
// through both paths.
func TestClassifyBatchQuantizedMatchesScalar(t *testing.T) {
	ds := dyadicDataset(t, 50, 104)
	f := Train(ds, Config{Trees: 25, Subspace: 2, Seed: 105})
	if !f.batchable {
		t.Fatal("trained model must be batchable")
	}
	rng := rand.New(rand.NewSource(106))
	for _, m := range []int{1, 4, 16, 64, 100} {
		vecs := randomBlock(rng, m, 4)
		for _, v := range vecs {
			for d := range v {
				if rng.Intn(3) == 0 {
					v[d] = float64(rng.Intn(24*8)) / 8
				}
			}
		}
		assertBatchMatchesScalar(t, f, vecs)
	}
}

func TestClassifyBatchUnquantizedModel(t *testing.T) {
	// Gaussian features give midpoint thresholds off any coarse grid, so
	// the sign-bit select sees arbitrary float64 differences.
	ds := clusterDataset(t, 40, 107)
	f := Train(ds, Config{Trees: 20, Subspace: 2, Seed: 108})
	rng := rand.New(rand.NewSource(109))
	assertBatchMatchesScalar(t, f, randomBlock(rng, 64, 3))
}

func TestVotesBatchScalarFallbackModel(t *testing.T) {
	// A model the packed arena cannot represent (zero feature width:
	// every tree is a bare leaf) must still answer through the fallback.
	one := []Sample{{Features: []float64{}, Label: "only"}}
	ds, err := NewDataset(one)
	if err != nil {
		t.Fatal(err)
	}
	f := Train(ds, Config{Trees: 5, Subspace: 1, Seed: 110})
	if f.batchable {
		t.Fatal("width-0 model must not be batchable")
	}
	vecs := [][]float64{{}, {1, 2}, {}}
	assertBatchMatchesScalar(t, f, vecs)
}

func TestBatchArenaInvariants(t *testing.T) {
	ds := clusterDataset(t, 40, 111)
	f := Train(ds, Config{Trees: 17, Subspace: 2, Seed: 112})
	for t2 := 0; t2 < f.NumTrees(); t2++ {
		root := f.starts[t2]
		end := f.starts[t2+1]
		for i := root; i < end; i++ {
			if f.feat[i] < 0 {
				// Leaf: packed self-loop with +Inf threshold.
				if f.meta[i] != i<<f.featShift {
					t.Fatalf("node %d: leaf meta %d != self-loop", i, f.meta[i])
				}
				if !math.IsInf(f.bthr[i], 1) {
					t.Fatalf("node %d: leaf bthr %v != +Inf", i, f.bthr[i])
				}
				continue
			}
			l, r := f.kids[2*i], f.kids[2*i+1]
			if r != l+1 {
				t.Fatalf("node %d: children %d/%d not adjacent (level order broken)", i, l, r)
			}
			if l <= i || r >= end {
				t.Fatalf("node %d: children %d/%d outside (parent, tree end)", i, l, r)
			}
			if f.meta[i] != l<<f.featShift|f.feat[i] {
				t.Fatalf("node %d: meta %d does not pack child %d feature %d", i, f.meta[i], l, f.feat[i])
			}
			if f.bthr[i] != f.thr[i] {
				t.Fatalf("node %d: bthr %v != thr %v", i, f.bthr[i], f.thr[i])
			}
		}
	}
}

func TestSaveLoadSaveIsIdempotent(t *testing.T) {
	// The level-order layout is canonical: once flattened, persisting and
	// reloading must reproduce the byte-identical document.
	ds := clusterDataset(t, 30, 113)
	f := Train(ds, Config{Trees: 9, Subspace: 2, Seed: 114})
	var b1 bytes.Buffer
	if err := f.Save(&b1); err != nil {
		t.Fatal(err)
	}
	g, err := Load(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := g.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Save -> Load -> Save changed the document; level-order layout is not canonical")
	}
	if g.batchable != f.batchable {
		t.Fatal("Load must rebuild the same batch arena capabilities")
	}
}

func TestLoadBuildsBatchArena(t *testing.T) {
	ds := clusterDataset(t, 30, 115)
	f := Train(ds, Config{Trees: 7, Subspace: 2, Seed: 116})
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.batchable {
		t.Fatal("loaded model must be batchable")
	}
	rng := rand.New(rand.NewSource(117))
	assertBatchMatchesScalar(t, g, randomBlock(rng, 64, 3))
}

func TestClassifyBatchZeroAllocsSteadyState(t *testing.T) {
	ds := clusterDataset(t, 40, 118)
	f := Train(ds, Config{Trees: 21, Subspace: 2, Seed: 119})
	rng := rand.New(rand.NewSource(120))
	vecs := randomBlock(rng, 64, 3)
	labels := make([]string, len(vecs))
	confs := make([]float64, len(vecs))
	var sc BatchScratch
	f.ClassifyBatchInto(&sc, vecs, labels, confs) // warm scratch
	if n := testing.AllocsPerRun(50, func() {
		f.ClassifyBatchInto(&sc, vecs, labels, confs)
	}); n != 0 {
		t.Fatalf("ClassifyBatchInto allocates %.1f per block, want 0", n)
	}
	if raceEnabled {
		// ClassifyBatch takes its scratch from a sync.Pool, which the race
		// detector makes drop Puts at random; the plain run asserts it.
		return
	}
	f.ClassifyBatch(vecs, labels, confs) // warm the pool
	if n := testing.AllocsPerRun(50, func() {
		f.ClassifyBatch(vecs, labels, confs)
	}); n != 0 {
		t.Fatalf("ClassifyBatch allocates %.1f per block, want 0", n)
	}
}

// benchModel trains a forest sized like the production configuration (80
// trees) on a separable synthetic set, for in-package kernel benchmarks.
// The authoritative trajectory numbers come from internal/bench against
// the experiment-scale model.
func benchModel(b *testing.B) (*Forest, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(121))
	centers := [][]float64{
		{0, 0, 0, 5, 1, 9, 2, 4},
		{10, 10, 0, 1, 8, 2, 7, 3},
		{0, 10, 10, 7, 3, 5, 1, 8},
		{10, 0, 10, 3, 6, 1, 9, 2},
	}
	names := []string{"a", "b", "c", "d"}
	var samples []Sample
	for ci, c := range centers {
		for i := 0; i < 160; i++ {
			v := make([]float64, len(c))
			for d := range v {
				v[d] = c[d] + rng.NormFloat64()*2
			}
			samples = append(samples, Sample{Features: v, Label: names[ci]})
		}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		b.Fatal(err)
	}
	f := Train(ds, Config{Trees: 80, Subspace: 4, Seed: 122})
	vecs := make([][]float64, 64)
	for i := range vecs {
		v := make([]float64, 8)
		c := centers[i%len(centers)]
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()*3
		}
		vecs[i] = v
	}
	return f, vecs
}

func BenchmarkClassifyScalar64(b *testing.B) {
	f, vecs := benchModel(b)
	var votes []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vecs {
			_, _, votes = f.ClassifyBuf(v, votes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/sample")
}

func BenchmarkClassifyBatch64(b *testing.B) {
	f, vecs := benchModel(b)
	labels := make([]string, len(vecs))
	confs := make([]float64, len(vecs))
	var sc BatchScratch
	f.ClassifyBatchInto(&sc, vecs, labels, confs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ClassifyBatchInto(&sc, vecs, labels, confs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/sample")
}
