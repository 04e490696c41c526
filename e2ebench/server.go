package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// server is one running caai-serve process.
type server struct {
	cmd   *exec.Cmd
	base  string // "http://127.0.0.1:port"
	setup time.Duration
	done  chan error // receives cmd.Wait's result once

	stopOnce sync.Once
	stopErr  error
}

// setupTimeout bounds training plus listen for one server start.
const setupTimeout = 60 * time.Second

// startServer execs bin with -train/-seed on a free loopback port and
// returns once /healthz answers 200. setup is exec to that first 200.
func startServer(bin string, train int, seed int64) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-train", strconv.Itoa(train), "-seed", strconv.FormatInt(seed, 10))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	// The stdout reader finds the listen address, then keeps draining so
	// the server never blocks on a full pipe; Wait runs after it has seen
	// EOF, as exec requires.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "caai-serve: listening on "); ok && !sent {
				addr <- strings.Fields(a)[0]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		s.done <- cmd.Wait()
	}()
	deadline := time.NewTimer(setupTimeout)
	defer deadline.Stop()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, fmt.Errorf("caai-serve exited before listening: %v", <-s.done)
		}
		s.base = a
	case <-deadline.C:
		s.stop()
		return nil, fmt.Errorf("caai-serve did not listen within %v", setupTimeout)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				client.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Since(start) > setupTimeout {
			s.stop()
			return nil, fmt.Errorf("caai-serve /healthz not ready within %v: %v", setupTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process to exit (SIGKILL after
// 10s). Later calls return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case s.stopErr = <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			s.stopErr = errors.Join(errors.New("caai-serve ignored SIGTERM"), <-s.done)
		}
	})
	return s.stopErr
}

// procStats is the server's resource use from /proc.
type procStats struct {
	cpu    time.Duration // user + system
	hwmKiB int64         // VmHWM: peak resident set
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStats, error) {
	var ps procStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 18 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.Fields(v + " 0")[0], 10, 64)
		if k == "VmHWM" {
			ps.hwmKiB = n
		}
	}
	return ps, nil
}

// scrape is one reading of the server's own counters: the JSON /metrics
// snapshot plus the Prometheus stage histograms (cumulative bucket counts
// keyed by stage, in le order).
type scrape struct {
	snap   service.MetricsSnapshot
	stages map[string][]bucket
	proc   procStats
}

type bucket struct {
	le    float64 // upper bound in seconds (+Inf last)
	count int64   // cumulative
}

func (s *server) scrape(c *http.Client) (scrape, error) {
	var out scrape
	get := func(path string) ([]byte, error) {
		resp, err := c.Get(s.base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return b, err
	}
	b, err := get("/metrics")
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(b, &out.snap); err != nil {
		return out, fmt.Errorf("decoding /metrics: %w", err)
	}
	b, err = get("/metrics?format=prometheus")
	if err != nil {
		return out, err
	}
	out.stages = parseStageBuckets(string(b))
	out.proc, err = readProc(s.cmd.Process.Pid)
	return out, err
}

var inf = math.Inf(1)

// parseStageBuckets extracts caai_stage_duration_seconds_bucket series.
func parseStageBuckets(text string) map[string][]bucket {
	const prefix = `caai_stage_duration_seconds_bucket{stage="`
	out := map[string][]bucket{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		stage, rest, ok := strings.Cut(rest, `",le="`)
		if !ok {
			continue
		}
		leStr, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if leStr == "+Inf" {
			le, err = inf, nil
		}
		n, err2 := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || err2 != nil {
			continue
		}
		out[stage] = append(out[stage], bucket{le: le, count: int64(n)})
	}
	return out
}

// histQuantileMs returns the q-quantile, in ms, of the observations that
// landed in a stage histogram between two scrapes: the upper bound of the
// bucket where the cumulative delta first reaches q of the total. Returns
// false when the stage saw no observations.
func histQuantileMs(before, after []bucket, q float64) (float64, bool) {
	if len(after) == 0 {
		return 0, false
	}
	delta := make([]int64, len(after))
	for i := range after {
		delta[i] = after[i].count
		if i < len(before) {
			delta[i] -= before[i].count
		}
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return 0, false
	}
	need := int64(q*float64(total) + 0.999999)
	for i, d := range delta {
		if d >= need {
			le := after[i].le
			if le == inf && i > 0 {
				le = after[i-1].le
			}
			return le * 1000, true
		}
	}
	return 0, false
}
