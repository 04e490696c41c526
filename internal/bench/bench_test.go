package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestNewPointRecordsHost pins the host provenance every point carries:
// allocation counts of the sharded paths depend on it.
func TestNewPointRecordsHost(t *testing.T) {
	p := NewPoint("host", "quick")
	if p.GOMAXPROCS != runtime.GOMAXPROCS(0) || p.NumCPU != runtime.NumCPU() {
		t.Fatalf("point records GOMAXPROCS=%d NumCPU=%d, want %d and %d",
			p.GOMAXPROCS, p.NumCPU, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" && p.CPUModel == "" {
		t.Fatal("CPU model missing from /proc/cpuinfo")
	}
}

func TestNextPointPathSequencing(t *testing.T) {
	dir := t.TempDir()
	p, err := NextPointPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_0.json" {
		t.Fatalf("empty history starts at %s, want BENCH_0.json", p)
	}
	for _, name := range []string{"BENCH_0.json", "BENCH_3.json", "BENCH_2.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err = NextPointPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_4.json" {
		t.Fatalf("next point = %s, want BENCH_4.json (max existing + 1)", p)
	}
}

func TestPointRoundTripAndHistory(t *testing.T) {
	dir := t.TempDir()
	p0 := NewPoint("first", "quick")
	p0.Benchmarks = []Result{{Name: "a/b", N: 10, NsPerOp: 100, AllocsPerOp: 2}}
	p1 := NewPoint("second", "quick")
	p1.Benchmarks = []Result{{Name: "a/b", N: 20, NsPerOp: 50, AllocsPerOp: 0}}
	if err := WritePoint(filepath.Join(dir, "BENCH_0.json"), p0); err != nil {
		t.Fatal(err)
	}
	if err := WritePoint(filepath.Join(dir, "BENCH_1.json"), p1); err != nil {
		t.Fatal(err)
	}
	hist, err := History(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].Label != "first" || hist[1].Label != "second" {
		t.Fatalf("history = %+v", hist)
	}
	table := Compare(hist[0], hist[1])
	if !strings.Contains(table, "2.00x") {
		t.Fatalf("compare table missing the 2x speedup:\n%s", table)
	}
}

func allocLimit(n int64) *int64  { return &n }
func nsLimit(n float64) *float64 { return &n }

func TestBudgetCheck(t *testing.T) {
	b := Budget{
		"hot/path":   {MaxAllocsPerOp: allocLimit(10)},
		"never/ran":  {MaxAllocsPerOp: allocLimit(1)},
		"timed/path": {MaxNsPerOp: nsLimit(1000)},
	}
	results := []Result{
		{Name: "hot/path", AllocsPerOp: 11},
		{Name: "timed/path", NsPerOp: 999},
	}
	violations := b.Check(results)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want allocs overrun + missing benchmark", violations)
	}
	joined := strings.Join(violations, "\n")
	if !strings.Contains(joined, "hot/path") || !strings.Contains(joined, "never/ran") {
		t.Fatalf("unexpected violations: %v", violations)
	}

	results[0].AllocsPerOp = 10
	results = append(results, Result{Name: "never/ran"})
	if violations := b.Check(results); len(violations) != 0 {
		t.Fatalf("within-budget run reported %v", violations)
	}
}

// TestBudgetCheckMetrics: a max_metrics bound is enforced against the
// benchmark's ReportMetric extras, and a budgeted metric that was never
// reported is a violation of its own (like a missing benchmark).
func TestBudgetCheckMetrics(t *testing.T) {
	b := Budget{"telemetry/overhead": {
		MaxAllocsPerOp: allocLimit(0),
		MaxMetrics:     map[string]float64{"overhead-%": 5},
	}}
	over := []Result{{Name: "telemetry/overhead", Metrics: map[string]float64{"overhead-%": 7.2}}}
	if v := b.Check(over); len(v) != 1 || !strings.Contains(v[0], "overhead-%") {
		t.Fatalf("7.2%% against a 5%% metric budget reported %v, want one violation", v)
	}
	missing := []Result{{Name: "telemetry/overhead"}}
	if v := b.Check(missing); len(v) != 1 || !strings.Contains(v[0], "not reported") {
		t.Fatalf("unreported budgeted metric reported %v, want one violation", v)
	}
	within := []Result{{Name: "telemetry/overhead", Metrics: map[string]float64{"overhead-%": 1.3}}}
	if v := b.Check(within); len(v) != 0 {
		t.Fatalf("within-budget metric reported %v", v)
	}
}

// TestBudgetCheckZeroIsEnforced: an explicit 0 budget is a real limit —
// the zero-allocation contracts are the whole point of the gate.
func TestBudgetCheckZeroIsEnforced(t *testing.T) {
	b := Budget{"forest/votes_into": {MaxAllocsPerOp: allocLimit(0)}}
	if v := b.Check([]Result{{Name: "forest/votes_into", AllocsPerOp: 1}}); len(v) != 1 {
		t.Fatalf("1 alloc against a 0 budget reported %v, want a violation", v)
	}
	if v := b.Check([]Result{{Name: "forest/votes_into", AllocsPerOp: 0}}); len(v) != 0 {
		t.Fatalf("0 allocs against a 0 budget reported %v", v)
	}
}

func TestRunExecutesAndFilters(t *testing.T) {
	ran := map[string]bool{}
	cases := []Case{
		{Name: "group/fast", Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
			}
			ran["group/fast"] = true
			b.ReportMetric(42, "answer")
		}},
		{Name: "other/skip", Bench: func(b *testing.B) { ran["other/skip"] = true }},
	}
	results, err := Run(cases, regexp.MustCompile(`^group/`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ran["group/fast"] || ran["other/skip"] {
		t.Fatalf("filter ran the wrong cases: %v", ran)
	}
	if len(results) != 1 || results[0].Name != "group/fast" {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Metrics["answer"] != 42 {
		t.Fatalf("ReportMetric extras not captured: %+v", results[0])
	}
}

// TestRunSurfacesBenchmarkFailure: a case that b.Fatals must turn into an
// error, not an N=0 result that serializes as NaN and passes the gate.
func TestRunSurfacesBenchmarkFailure(t *testing.T) {
	cases := []Case{{Name: "broken/case", Bench: func(b *testing.B) {
		b.Fatal("boom")
	}}}
	if _, err := Run(cases, nil, nil); err == nil || !strings.Contains(err.Error(), "broken/case") {
		t.Fatalf("err = %v, want a failure naming broken/case", err)
	}
}
