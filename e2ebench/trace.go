package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call of the traced replay. Times are nanoseconds since
// the recorder started; Parent is the index of the enclosing span (-1 for
// a root) and Req the index of the operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// opSpan names the root span of one replayed operation. Layer spans nest
// under it; self time left on it is time no layer span covers.
const opSpan = "op"

// recorder keeps the replay's spans in memory. The replay runs on one
// goroutine, so spans nest strictly and need no locking. With tracing off
// it records nothing but each operation's wall time, which gives the
// untraced figure the traced one is compared with.
type recorder struct {
	t0       time.Time
	tracing  bool
	spans    []span
	open     []int32
	req      int32
	untraced []time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// passes runs a replay four times: a warm-up pass whose times are
// dropped, then untraced, traced, untraced, so the untraced figure
// brackets the traced one and a drift over the passes does not pass for
// tracing overhead. It leaves tracing on for the root spans that follow.
func (r *recorder) passes(replay func() error) error {
	defer func() { r.tracing = true }()
	for pass := 0; pass < 4; pass++ {
		r.tracing = pass == 2
		if err := replay(); err != nil {
			return err
		}
		if pass == 0 {
			r.untraced = r.untraced[:0]
		}
	}
	return nil
}

// op runs one operation under a root span (traced) or a stopwatch.
func (r *recorder) op(req int, fn func()) {
	if !r.tracing {
		start := time.Now()
		fn()
		r.untraced = append(r.untraced, time.Since(start))
		return
	}
	r.req = int32(req)
	r.span(opSpan, fn)
}

// root records fn as a root span outside any operation (a whole-pass
// measurement such as one decode of the capture).
func (r *recorder) root(name string, req int, fn func()) time.Duration {
	start := time.Now()
	if !r.tracing {
		fn()
		return time.Since(start)
	}
	r.req = int32(req)
	r.span(name, fn)
	s := r.spans[len(r.spans)-1]
	return time.Duration(s.End - s.Start)
}

// span records fn as a child of the innermost open span.
func (r *recorder) span(name string, fn func()) {
	if !r.tracing {
		fn()
		return
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: r.req, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, i)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(time.Since(r.t0))
}

// durations returns the durations of every span named name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianUs is the median duration of the spans named name, in µs.
func (r *recorder) medianUs(name string) float64 {
	ds := r.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// selfTimes returns every span's self time: its duration minus the time
// its direct children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// inOp reports whether span i lies in an operation tree.
func (r *recorder) inOp(i int) bool {
	for j := int32(i); j >= 0; j = r.spans[j].Parent {
		if r.spans[j].Name == opSpan {
			return true
		}
	}
	return false
}

// selfTotals sums self time per span name over the operation trees, and
// returns the summed operation time.
func (r *recorder) selfTotals() (map[string]time.Duration, time.Duration) {
	self := r.selfTimes()
	out := map[string]time.Duration{}
	var opTotal time.Duration
	for i, s := range r.spans {
		if !r.inOp(i) {
			continue
		}
		out[s.Name] += self[i]
		if s.Name == opSpan {
			opTotal += time.Duration(s.End - s.Start)
		}
	}
	return out, opTotal
}

// selfPerOp is the mean self time per operation of every layer, in µs.
func (r *recorder) selfPerOp() map[string]float64 {
	tot, _ := r.selfTotals()
	n := float64(len(r.durations(opSpan)))
	out := map[string]float64{}
	for name, d := range tot {
		if n > 0 {
			out[name] = us(d) / n
		}
	}
	return out
}

// share is the percentage of operation time spent in name's own code.
func (r *recorder) share(name string) float64 {
	tot, opTotal := r.selfTotals()
	if opTotal <= 0 {
		return 0
	}
	return 100 * float64(tot[name]) / float64(opTotal)
}

// opSummary returns the median traced and untraced operation times (µs)
// and the share of traced operation time that layer spans account for.
func (r *recorder) opSummary() (traced, untraced, attributed float64) {
	tot, opTotal := r.selfTotals()
	if opTotal > 0 {
		attributed = 1 - float64(tot[opSpan])/float64(opTotal)
	}
	u := make([]float64, len(r.untraced))
	for i, d := range r.untraced {
		u[i] = us(d)
	}
	return r.medianUs(opSpan), median(u), attributed
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
