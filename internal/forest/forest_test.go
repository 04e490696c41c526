package forest

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// clusterDataset builds an easily separable three-class dataset.
func clusterDataset(t testing.TB, n int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centers := map[string][]float64{
		"a": {0, 0, 0},
		"b": {10, 10, 0},
		"c": {0, 10, 10},
	}
	var samples []Sample
	for label, c := range centers {
		for i := 0; i < n; i++ {
			f := make([]float64, len(c))
			for d := range f {
				f[d] = c[d] + rng.NormFloat64()
			}
			samples = append(samples, Sample{Features: f, Label: label})
		}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil); err == nil {
		t.Fatal("empty dataset must error")
	}
	_, err := NewDataset([]Sample{
		{Features: []float64{1, 2}, Label: "x"},
		{Features: []float64{1}, Label: "y"},
	})
	if err == nil {
		t.Fatal("inconsistent dimensions must error")
	}
}

func TestDatasetClassesSorted(t *testing.T) {
	ds := clusterDataset(t, 5, 1)
	want := []string{"a", "b", "c"}
	if got := ds.Classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Classes = %v", got)
	}
}

func TestDatasetSubsetSharesClassIndex(t *testing.T) {
	ds := clusterDataset(t, 5, 2)
	sub := ds.Subset([]int{0, 1})
	if !reflect.DeepEqual(sub.Classes(), ds.Classes()) {
		t.Fatal("subset must keep the full class index")
	}
	if sub.Len() != 2 {
		t.Fatalf("subset len = %d", sub.Len())
	}
}

func TestForestLearnsClusters(t *testing.T) {
	ds := clusterDataset(t, 50, 3)
	f := Train(ds, Config{Trees: 30, Subspace: 2, Seed: 4})
	correct := 0
	for _, s := range ds.Samples() {
		if got, conf := f.Classify(s.Features); got == s.Label {
			correct++
			if conf <= 0 || conf > 1 {
				t.Fatalf("confidence %v out of range", conf)
			}
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.98 {
		t.Fatalf("training accuracy = %v, want >= 0.98", acc)
	}
}

func TestForestDeterministicForSeed(t *testing.T) {
	ds := clusterDataset(t, 30, 5)
	probe := []float64{5, 5, 5}
	f1 := Train(ds, Config{Trees: 20, Subspace: 2, Seed: 42})
	f2 := Train(ds, Config{Trees: 20, Subspace: 2, Seed: 42})
	l1, c1 := f1.Classify(probe)
	l2, c2 := f2.Classify(probe)
	if l1 != l2 || c1 != c2 {
		t.Fatalf("nondeterministic: %s/%v vs %s/%v", l1, c1, l2, c2)
	}
}

func TestForestParallelismInvariance(t *testing.T) {
	ds := clusterDataset(t, 30, 6)
	probe := []float64{1, 9, 2}
	serial := Train(ds, Config{Trees: 16, Subspace: 2, Seed: 9, Parallelism: 1})
	parallel := Train(ds, Config{Trees: 16, Subspace: 2, Seed: 9, Parallelism: 8})
	v1, v2 := serial.Votes(probe), parallel.Votes(probe)
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("parallel training changed the model: %v vs %v", v1, v2)
	}
}

func TestVotesSumToTrees(t *testing.T) {
	ds := clusterDataset(t, 20, 7)
	f := Train(ds, Config{Trees: 25, Subspace: 2, Seed: 10})
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		probe := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		votes := f.Votes(probe)
		sum := 0
		for _, v := range votes {
			sum += v
		}
		return sum == 25
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClassifyReturnsKnownClass(t *testing.T) {
	ds := clusterDataset(t, 20, 8)
	f := Train(ds, Config{Trees: 10, Subspace: 3, Seed: 11})
	known := map[string]bool{"a": true, "b": true, "c": true}
	checker := func(x, y, z float64) bool {
		label, conf := f.Classify([]float64{x, y, z})
		return known[label] && conf > 0 && conf <= 1
	}
	if err := quick.Check(checker, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSingleClassDataset(t *testing.T) {
	samples := make([]Sample, 10)
	for i := range samples {
		samples[i] = Sample{Features: []float64{float64(i)}, Label: "only"}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	f := Train(ds, Config{Trees: 5, Subspace: 1, Seed: 12})
	label, conf := f.Classify([]float64{3})
	if label != "only" || conf != 1 {
		t.Fatalf("got %s/%v", label, conf)
	}
}

func TestConstantFeaturesYieldLeaf(t *testing.T) {
	// Identical feature vectors with conflicting labels: no valid split
	// exists; training must terminate with majority leaves.
	samples := []Sample{
		{Features: []float64{1, 1}, Label: "x"},
		{Features: []float64{1, 1}, Label: "x"},
		{Features: []float64{1, 1}, Label: "y"},
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	f := Train(ds, Config{Trees: 3, Subspace: 2, Seed: 13})
	if label, _ := f.Classify([]float64{1, 1}); label != "x" {
		t.Fatalf("majority = %s, want x", label)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{5, 0}, 5); g != 0 {
		t.Fatalf("pure gini = %v", g)
	}
	if g := gini([]int{5, 5}, 10); g != 0.5 {
		t.Fatalf("even gini = %v", g)
	}
	if g := gini(nil, 0); g != 0 {
		t.Fatalf("empty gini = %v", g)
	}
}

func TestConfusionMatrix(t *testing.T) {
	m := NewConfusionMatrix([]string{"a", "b"})
	m.Add("a", "a")
	m.Add("a", "a")
	m.Add("a", "b")
	m.Add("b", "b")
	m.Add("zz", "a") // unknown labels ignored
	if got := m.Accuracy(); got != 0.75 {
		t.Fatalf("accuracy = %v, want 0.75", got)
	}
	if got := m.ClassAccuracy("a"); got < 0.66 || got > 0.67 {
		t.Fatalf("class accuracy a = %v", got)
	}
	if got := m.Count("a", "b"); got != 1 {
		t.Fatalf("Count(a,b) = %d", got)
	}
	if m.String() == "" {
		t.Fatal("empty render")
	}
}

func TestCrossValidateSeparableData(t *testing.T) {
	ds := clusterDataset(t, 40, 14)
	m := CrossValidate(ds, Config{Trees: 15, Subspace: 2, Seed: 15}, 5, rand.New(rand.NewSource(16)))
	if acc := m.Accuracy(); acc < 0.95 {
		t.Fatalf("cross-validation accuracy = %v, want >= 0.95", acc)
	}
	// Every sample is validated exactly once.
	total := 0
	for _, a := range m.Classes() {
		for _, p := range m.Classes() {
			total += m.Count(a, p)
		}
	}
	if total != ds.Len() {
		t.Fatalf("validated %d samples, want %d", total, ds.Len())
	}
}

func TestValidThresholdHelper(t *testing.T) {
	if !validThreshold(1.5) || validThreshold(nan()) {
		t.Fatal("validThreshold misbehaves")
	}
}

func nan() float64 { return float64(0) / zero() }

func zero() float64 { return 0 }
