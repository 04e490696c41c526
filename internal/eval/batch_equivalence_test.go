package eval

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/classify"
	"repro/internal/feature"
	"repro/internal/forest"
)

// These are the pipeline-level equivalence guards for block inference:
// ClassifyBatch must agree with Classify bit for bit -- labels,
// confidences, and raw vote counts -- on realistic vectors (gathered over
// the whole cc registry), on the committed golden model, and on forests
// with coarse-grid and arbitrary split thresholds. The block paths threaded through engine/service/flow/eval lean entirely on
// this property: grouping samples into blocks must never change a result.

// registryVectors gathers one probe per registered CAAI algorithm against
// the golden condition and expands the extracted vectors into a corpus
// large enough to span several 64-lane kernel chunks, with hostile
// entries (short, empty, negated, zeroed) mixed in to pin the
// short-vector and out-of-distribution contracts.
func registryVectors(t *testing.T) [][]float64 {
	t.Helper()
	var vecs [][]float64
	for i, alg := range cc.CAAINames() {
		res := gatherGolden(alg, goldenSeed(i))
		if !res.Valid {
			t.Fatalf("gathering for %s went invalid (%s)", alg, res.Reason)
		}
		vec := feature.Extract(res.TraceA, res.TraceB)
		vecs = append(vecs, vec.Slice())
	}
	rng := rand.New(rand.NewSource(271828))
	base := len(vecs)
	for len(vecs) < 150 {
		src := vecs[rng.Intn(base)]
		switch rng.Intn(6) {
		case 0: // short vector: the scalar walk refuses it with zero votes
			vecs = append(vecs, src[:rng.Intn(len(src))])
		case 1: // empty
			vecs = append(vecs, []float64{})
		case 2: // sign-flipped
			neg := make([]float64, len(src))
			for d, v := range src {
				neg[d] = -v
			}
			vecs = append(vecs, neg)
		case 3: // zero vector
			vecs = append(vecs, make([]float64, len(src)))
		default: // jittered copy
			cp := make([]float64, len(src))
			for d, v := range src {
				cp[d] = v * (0.8 + 0.4*rng.Float64())
			}
			vecs = append(vecs, cp)
		}
	}
	return vecs
}

// assertBatchEquivalence pins ClassifyBatch and VotesBatch against their
// scalar counterparts on every vector, bit for bit.
func assertBatchEquivalence(t *testing.T, f *forest.Forest, vecs [][]float64) {
	t.Helper()
	m := len(vecs)
	labels := make([]string, m)
	confs := make([]float64, m)
	f.ClassifyBatch(vecs, labels, confs)
	nc := f.NumClasses()
	votes := f.VotesBatch(nil, vecs, nil)
	for i, v := range vecs {
		wantLabel, wantConf := f.Classify(v)
		if labels[i] != wantLabel {
			t.Fatalf("vector %d (len %d): batch label %q != scalar %q", i, len(v), labels[i], wantLabel)
		}
		if math.Float64bits(confs[i]) != math.Float64bits(wantConf) {
			t.Fatalf("vector %d: batch confidence %v != scalar %v (bit-exact required)", i, confs[i], wantConf)
		}
		wantVotes := f.Votes(v)
		row := votes[i*nc : (i+1)*nc]
		for c := range row {
			if int(row[c]) != wantVotes[c] {
				t.Fatalf("vector %d class %d: batch votes %d != scalar %d", i, c, row[c], wantVotes[c])
			}
		}
	}
}

// TestClassifyBatchMatchesScalarOnGoldenModel runs the equivalence
// property on the committed golden model against vectors gathered over
// the full cc registry.
func TestClassifyBatchMatchesScalarOnGoldenModel(t *testing.T) {
	model, err := classify.LoadFile(filepath.Join(goldenDir, goldenModelFile))
	if err != nil {
		t.Fatalf("golden model missing (regenerate with -update): %v", err)
	}
	f, ok := model.(*forest.Forest)
	if !ok {
		t.Fatalf("golden model is %T, want *forest.Forest", model)
	}
	assertBatchEquivalence(t, f, registryVectors(t))
}

// TestClassifyBatchMatchesScalarQuantization runs the property on two
// threshold regimes: a forest trained on a coarse dyadic grid, whose split
// thresholds are exactly representable in float32 ("quantized"), and one
// trained on arbitrary float64s ("unquantized").
func TestClassifyBatchMatchesScalarQuantization(t *testing.T) {
	vecs := registryVectors(t)
	train := func(dyadic bool) *forest.Forest {
		rng := rand.New(rand.NewSource(31415))
		var samples []forest.Sample
		for i := 0; i < 320; i++ {
			fs := make([]float64, feature.NumFeatures)
			for d := range fs {
				if dyadic {
					// k/512 grid: split midpoints land on k/1024, exactly
					// representable in float32.
					fs[d] = float64(rng.Intn(4096)) / 512
				} else {
					fs[d] = rng.Float64() * 8
				}
			}
			samples = append(samples, forest.Sample{Features: fs, Label: cc.CAAINames()[i%7]})
		}
		ds, err := forest.NewDataset(samples)
		if err != nil {
			t.Fatal(err)
		}
		return forest.Train(ds, forest.Config{Trees: 31, Subspace: 3, Seed: 92653})
	}
	t.Run("quantized", func(t *testing.T) {
		assertBatchEquivalence(t, train(true), vecs)
	})
	t.Run("unquantized", func(t *testing.T) {
		assertBatchEquivalence(t, train(false), vecs)
	})
}
