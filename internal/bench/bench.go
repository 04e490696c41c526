// Package bench is the machine-readable performance-regression harness:
// it runs the hot-path benchmark suite programmatically (testing.Benchmark,
// no `go test` invocation needed), renders each measurement as a Result,
// aggregates them into a Point, and persists points as BENCH_<n>.json
// trajectory files that CI archives. A checked-in budget file turns the
// trajectory into an enforced contract: exceeding a budget (most
// importantly allocs/op on the service cache-miss path) fails the run.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trajectory"
)

// Result is one measured benchmark.
type Result struct {
	// Name is the suite-local benchmark name (e.g. "service/identify_miss").
	Name string `json:"name"`
	// N is how many iterations the measurement ran.
	N int `json:"n"`
	// NsPerOp, BytesPerOp, AllocsPerOp are the standard Go benchmark
	// metrics.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries b.ReportMetric extras (accuracy, valid-%, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Point is one trajectory point of the perf history (one BENCH_<n>.json).
type Point struct {
	// Schema versions the file layout.
	Schema int `json:"schema"`
	// Label is free-form provenance ("pre-arena baseline", a commit, ...).
	Label string `json:"label,omitempty"`
	// Source records how the numbers were gathered ("caai-bench",
	// "go test -bench" for hand-recorded baselines).
	Source string `json:"source"`
	// GoVersion/GOOS/GOARCH identify the toolchain and platform; points
	// are only comparable within one platform.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS, NumCPU and CPUModel identify the host the suite ran
	// on: allocation counts of the sharded and pooled paths depend on
	// the worker count, so points only compare within one setting.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	// Scale describes the workload scale ("quick", "paper", ...).
	Scale string `json:"scale"`
	// Metrics carries suite-level quality metrics (cross-validation
	// accuracy) so a perf win that costs accuracy is visible in the same
	// file.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Benchmarks are the per-benchmark measurements.
	Benchmarks []Result `json:"benchmarks"`
}

// PointSchema is the current Point layout version.
const PointSchema = 1

// NewPoint returns a Point pre-filled with toolchain/platform provenance.
func NewPoint(label, scale string) Point {
	return Point{
		Schema:     PointSchema,
		Label:      label,
		Source:     "caai-bench",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Scale:      scale,
		Metrics:    map[string]float64{},
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("" where that
// file does not exist).
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: no model
	_, rest, _ := strings.Cut(string(data), "model name")
	line, _, _ := strings.Cut(rest, "\n")
	_, name, _ := strings.Cut(line, ":")
	return strings.TrimSpace(name)
}

// Case is one runnable suite benchmark.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Run executes the cases matching filter (nil = all) and returns their
// results, logging one line per finished case to log (nil = silent). A
// benchmark that fails (b.Fatal/b.Error inside the case) is an error:
// testing.Benchmark swallows failures into an N=0 result, which would
// otherwise serialize as NaN and sail through the budget gate as 0
// allocs/op.
func Run(cases []Case, filter *regexp.Regexp, log io.Writer) ([]Result, error) {
	var out []Result
	for _, c := range cases {
		if filter != nil && !filter.MatchString(c.Name) {
			continue
		}
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			return nil, fmt.Errorf("bench: %s failed (see the benchmark log above)", c.Name)
		}
		res := Result{
			Name:        c.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = map[string]float64{}
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		out = append(out, res)
		if log != nil {
			fmt.Fprintf(log, "%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
				c.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}
	return out, nil
}

// filePrefix names the trajectory files (BENCH_<n>.json).
const filePrefix = "BENCH"

// NextPointPath returns the path of the next trajectory file in dir
// (BENCH_<max+1>.json, starting at BENCH_0.json in an empty history).
func NextPointPath(dir string) (string, error) {
	return trajectory.NextPath(dir, filePrefix)
}

// WritePoint writes p to path as indented JSON.
func WritePoint(path string, p Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPoint reads a trajectory point from path.
func ReadPoint(path string) (Point, error) {
	var p Point
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return p, nil
}

// History loads every BENCH_<n>.json in dir in index order.
func History(dir string) ([]Point, error) {
	entries, err := trajectory.Entries(dir, filePrefix)
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(entries))
	for i, e := range entries {
		p, err := ReadPoint(e.Path)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// Limits bounds one benchmark in the budget file. Absent (null) fields
// are unchecked; pointers keep an explicit 0 enforceable — the
// zero-allocation budgets are the whole point of the gate. Allocation
// budgets are the portable contract (ns/op budgets only make sense on a
// pinned CI machine).
type Limits struct {
	MaxAllocsPerOp *int64   `json:"max_allocs_per_op,omitempty"`
	MaxNsPerOp     *float64 `json:"max_ns_per_op,omitempty"`
	// MaxMetrics bounds b.ReportMetric extras by name (e.g. the telemetry
	// suite's "overhead-%"). A budgeted metric the benchmark did not
	// report is a violation, like a missing benchmark.
	MaxMetrics map[string]float64 `json:"max_metrics,omitempty"`
}

// Budget maps suite benchmark names to their limits.
type Budget map[string]Limits

// LoadBudget reads a budget file.
func LoadBudget(path string) (Budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Budget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parsing budget %s: %w", path, err)
	}
	return b, nil
}

// Check compares results against the budget and returns one human-readable
// violation per exceeded limit (empty = within budget). Budget entries
// with no matching result are reported too: a silently skipped benchmark
// must not pass the gate.
func (b Budget) Check(results []Result) []string {
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		lim := b[name]
		r, ok := byName[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: budgeted benchmark did not run", name))
			continue
		}
		if lim.MaxAllocsPerOp != nil && r.AllocsPerOp > *lim.MaxAllocsPerOp {
			violations = append(violations, fmt.Sprintf("%s: %d allocs/op exceeds budget %d", name, r.AllocsPerOp, *lim.MaxAllocsPerOp))
		}
		if lim.MaxNsPerOp != nil && r.NsPerOp > *lim.MaxNsPerOp {
			violations = append(violations, fmt.Sprintf("%s: %.0f ns/op exceeds budget %.0f", name, r.NsPerOp, *lim.MaxNsPerOp))
		}
		metricNames := make([]string, 0, len(lim.MaxMetrics))
		for mn := range lim.MaxMetrics {
			metricNames = append(metricNames, mn)
		}
		sort.Strings(metricNames)
		for _, mn := range metricNames {
			v, reported := r.Metrics[mn]
			if !reported {
				violations = append(violations, fmt.Sprintf("%s: budgeted metric %q was not reported", name, mn))
				continue
			}
			if v > lim.MaxMetrics[mn] {
				violations = append(violations, fmt.Sprintf("%s: %s = %.2f exceeds budget %.2f", name, mn, v, lim.MaxMetrics[mn]))
			}
		}
	}
	return violations
}

// Compare renders a before/after delta table for the benchmarks present in
// both points (the PR-description workflow). The speedup column uses the
// sorted-once stats view for its summary line.
func Compare(before, after Point) string {
	byName := map[string]Result{}
	for _, r := range before.Benchmarks {
		byName[r.Name] = r
	}
	out := fmt.Sprintf("%-28s %14s %14s %9s %16s\n", "benchmark", "before ns/op", "after ns/op", "speedup", "allocs/op")
	var speedups stats.Sample
	for _, a := range after.Benchmarks {
		b, ok := byName[a.Name]
		if !ok || a.NsPerOp == 0 {
			continue
		}
		sp := b.NsPerOp / a.NsPerOp
		speedups.Add(sp)
		out += fmt.Sprintf("%-28s %14.0f %14.0f %8.2fx %7d -> %5d\n",
			a.Name, b.NsPerOp, a.NsPerOp, sp, b.AllocsPerOp, a.AllocsPerOp)
	}
	if speedups.Len() > 0 {
		v := speedups.Sorted()
		out += fmt.Sprintf("speedup min/median/max: %.2fx / %.2fx / %.2fx\n", v.Min(), v.Median(), v.Max())
	}
	return out
}
