package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// client issues requests to one server over at most conns keep-alive
// connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sample is one open-loop request: when it was due, when the dispatcher
// handed it to a connection worker, and when its response was complete.
// Latency is counted from due, so a stall in the generator or a busy
// connection delays every later request's clock too.
type sample struct {
	due, dispatched, done time.Time
	status                int
	body                  []byte
	err                   error
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s *sample) late() time.Duration    { return s.dispatched.Sub(s.due) }
func (s *sample) ok() bool               { return s.err == nil && s.status/100 == 2 }

// poissonArrivals returns the offsets of the first n arrivals of a Poisson
// process of the given rate.
func poissonArrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sleepUntil blocks the calling OS thread in nanosleep(2) until t. The
// runtime's own timers wake a parked goroutine up to ~0.4 ms late on an
// idle box, which would dominate a ~1 ms request; nanosleep wakes within
// tens of microseconds and, unlike spinning, leaves the core to the server.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-checks the clock
	}
}

// openLoop posts bodies[i] to path at start+offs[i] regardless of how
// earlier requests fare; conns workers carry the requests. The dispatcher
// runs on the caller's goroutine, locked to its OS thread for sleepUntil.
// It returns the samples in due order and the time offsets count from.
func openLoop(c *client, path string, bodies [][]byte, offs []time.Duration, conns int) ([]sample, time.Time) {
	samples := make([]sample, len(bodies))
	queue := make(chan int, len(bodies)) // one slot per request: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.status, s.body, s.err = c.do(http.MethodPost, path, bodies[i])
				s.done = time.Now()
			}
		}()
	}
	runtime.LockOSThread()
	start := time.Now().Add(2 * time.Millisecond)
	for i, off := range offs {
		due := start.Add(off)
		sleepUntil(due)
		samples[i].due = due
		samples[i].dispatched = time.Now()
		queue <- i
	}
	runtime.UnlockOSThread()
	close(queue)
	wg.Wait()
	return samples, start
}

// step is one rung of the open-loop rate ladder, summarized.
type step struct {
	Rate     float64 `json:"rate"`     // nominal offered rate, req/s
	Offered  float64 `json:"offered"`  // arrivals / last arrival's offset
	Achieved float64 `json:"achieved"` // completions / (last completion - start)
	N        int     `json:"n"`
	Failed   int     `json:"failed"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	P99OK    bool    `json:"p99_supported"`
	// LateGrowthMs is the mean dispatcher lateness of the step's last
	// quarter of arrivals minus that of its first quarter.
	LateGrowthMs float64 `json:"late_growth_ms"`
	LateP99Ms    float64 `json:"late_p99_ms"`
}

// Ladder rule thresholds: a step holds when its p99 is supported and under
// latencyLimitMs, every request succeeded, completions kept up with
// arrivals, and the generator did not fall progressively behind.
const (
	latencyLimitMs   = 50.0
	minAchievedShare = 0.97
	maxLateGrowthMs  = 1.0
)

func (s step) holds() bool {
	return s.Failed == 0 && s.P99OK && s.P99Ms <= latencyLimitMs &&
		s.Achieved >= minAchievedShare*s.Offered && s.LateGrowthMs <= maxLateGrowthMs
}

// summarizeStep reduces one step's samples (in due order) of nominal rate,
// started at start, whose last arrival was due dur after it.
func summarizeStep(rate float64, start time.Time, dur time.Duration, ss []sample) step {
	st := step{Rate: rate, N: len(ss), Offered: float64(len(ss)) / dur.Seconds()}
	if len(ss) == 0 {
		return st
	}
	var last time.Time
	lat := make([]float64, 0, len(ss))
	late := make([]float64, 0, len(ss))
	for i := range ss {
		s := &ss[i]
		if !s.ok() {
			st.Failed++
		}
		if s.done.After(last) {
			last = s.done
		}
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.late()))
	}
	q := len(late) / 4
	if q > 0 {
		st.LateGrowthMs = mean(late[len(late)-q:]) - mean(late[:q])
	}
	if el := last.Sub(start); el > 0 {
		st.Achieved = float64(len(ss)) / el.Seconds()
	}
	st.P50Ms, _ = percentile(lat, 0.5)
	st.P99Ms, st.P99OK = percentile(lat, 0.99)
	st.LateP99Ms, _ = percentile(late, 0.99)
	return st
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// maxRate applies the ladder rule: walking up the ladder, the answer is
// the achieved rate of the last step that holds before the first one that
// does not. It returns the step's index, or -1 when the first step fails.
func maxRate(steps []step) (float64, int) {
	best := -1
	for i, s := range steps {
		if !s.holds() {
			break
		}
		best = i
	}
	if best < 0 {
		return 0, -1
	}
	return steps[best].Achieved, best
}

// String renders a step for the progress log.
func (s step) String() string {
	return fmt.Sprintf("rate %.0f: n=%d achieved=%.0f p50=%.2fms p99=%.2fms(ok=%v) late_growth=%.2fms failed=%d holds=%v",
		s.Rate, s.N, s.Achieved, s.P50Ms, s.P99Ms, s.P99OK, s.LateGrowthMs, s.Failed, s.holds())
}

// closedLoop POSTs bodies[order[j % len(order)]] to path for j = 0, 1, ...
// over one HTTP/1.1 keep-alive connection of its own, the next as soon as
// the last response is read whole, until deadline. It writes the
// requests and parses the responses itself: net/http's transport hands
// every request and response between goroutines of its own, and on the
// shared 2-core host those hand-offs made the closed loop's rate move by
// a fifth between runs of the same seed. For each response it calls done with the body's
// index, when the request was written, when the response was read, the
// status and the body.
func closedLoop(c *client, path string, bodies [][]byte, order []int, deadline time.Time,
	done func(i int, sent, at time.Time, status int, body []byte)) error {
	host := strings.TrimPrefix(c.base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return err
	}
	defer conn.Close()
	reqs := make([][]byte, len(bodies))
	for i, b := range bodies {
		head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, host, len(b))
		reqs[i] = append([]byte(head), b...)
	}
	br := bufio.NewReader(conn)
	for j := 0; time.Now().Before(deadline); j++ {
		i := order[j%len(order)]
		sent := time.Now()
		if _, err := conn.Write(reqs[i]); err != nil {
			return err
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		done(i, sent, time.Now(), resp.StatusCode, body)
	}
	return nil
}
