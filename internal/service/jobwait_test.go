package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

// submitGated starts a service whose model blocks every classification
// until the returned release is called, submits a batch of n specs and
// waits until the job is running.
func submitGated(t *testing.T, n int) (*Service, *httptest.Server, BatchAccepted, func()) {
	t.Helper()
	gate := make(chan struct{})
	model := &fakeClassifier{Label: "RENO", Confidence: 1, gate: gate}
	s, ts := newTestService(t, Config{Workers: 1, Parallelism: 1}, model)
	// Registered after newTestService so it runs before s.Close.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	jobs := make([]map[string]any, n)
	for i := range jobs {
		jobs[i] = map[string]any{"server": map[string]any{"algorithm": "RENO"}, "seed": i + 1}
	}
	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, acc.JobID, StateRunning, 10*time.Second)
	return s, ts, acc, release
}

// TestJobWaitReturnsAtDone: a long-poll parked on a running job answers
// as soon as the job is done, with the full result set.
func TestJobWaitReturnsAtDone(t *testing.T) {
	_, ts, acc, release := submitGated(t, 3)
	type answer struct {
		st      JobStatus
		code    int
		elapsed time.Duration
	}
	got := make(chan answer, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "?wait=30s")
		if err != nil {
			got <- answer{code: -1}
			return
		}
		defer resp.Body.Close()
		var a answer
		a.code = resp.StatusCode
		_ = json.NewDecoder(resp.Body).Decode(&a.st)
		a.elapsed = time.Since(start)
		got <- a
	}()
	select {
	case a := <-got:
		t.Fatalf("wait answered %s before the job could finish", a.st.State)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	a := <-got
	if a.code != http.StatusOK || a.st.State != StateDone || len(a.st.Results) != 3 {
		t.Fatalf("wait answered %d, state %s, %d results", a.code, a.st.State, len(a.st.Results))
	}
	if a.elapsed > 15*time.Second {
		t.Fatalf("wait took %v: it did not return at done", a.elapsed)
	}
	// A done job answers at once, however long the (capped) wait asked.
	start := time.Now()
	var st JobStatus
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+acc.JobID+"?wait=1h", &st); resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("wait on a done job: %d, %s", resp.StatusCode, st.State)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("wait on a done job blocked")
	}
}

// TestJobWaitReturnsRunningAfterShortWait: when the wait ends first, the
// answer is the job's current, non-terminal status.
func TestJobWaitReturnsRunningAfterShortWait(t *testing.T) {
	_, ts, acc, _ := submitGated(t, 2)
	start := time.Now()
	var st JobStatus
	resp := getJSON(t, ts.URL+"/v1/jobs/"+acc.JobID+"?wait=50ms", &st)
	if resp.StatusCode != http.StatusOK || st.State != StateRunning {
		t.Fatalf("short wait answered %d, state %s", resp.StatusCode, st.State)
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("short wait answered after %v, before its 50ms", el)
	}
	if st.Results != nil {
		t.Fatal("a running job's status carried results")
	}
}

// TestJobWaitHonoursClientCancel: the handler stops waiting when the
// client's request ends.
func TestJobWaitHonoursClientCancel(t *testing.T) {
	s, _, acc, _ := submitGated(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+acc.JobID+"?wait=30s", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wait outlived its cancelled request")
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.State != StateRunning {
		t.Fatalf("cancelled wait answered %q (%v)", rec.Body.String(), err)
	}
}

// TestStopWaitsEndsLongPoll: StopWaits, which caai-serve runs when its
// HTTP server begins shutting down, answers parked long-polls at once.
func TestStopWaitsEndsLongPoll(t *testing.T) {
	s, _, acc, _ := submitGated(t, 2)
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+acc.JobID+"?wait=30s", nil)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	s.StopWaits()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("StopWaits left a long-poll parked")
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.State != StateRunning {
		t.Fatalf("stopped wait answered %q (%v)", rec.Body.String(), err)
	}
}

// TestJobWaitUnknownAndBadWait: an unknown job is 404 without waiting,
// and a wait that is not a non-negative duration is 400.
func TestJobWaitUnknownAndBadWait(t *testing.T) {
	_, ts, acc, _ := submitGated(t, 1)
	start := time.Now()
	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999?wait=30s", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("unknown job waited")
	}
	for _, bad := range []string{"soon", "-1s", "5"} {
		if resp := getJSON(t, ts.URL+"/v1/jobs/"+acc.JobID+"?wait="+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRetiredJobReleasesSpecs: a finished job that stays pollable no
// longer pins its input specs, and the acceptance reports the job's size.
func TestRetiredJobReleasesSpecs(t *testing.T) {
	s, ts := newTestService(t, Config{}, &fakeClassifier{Label: "BIC", Confidence: 0.8})
	jobs := []map[string]any{
		{"server": map[string]any{"algorithm": "BIC"}, "seed": 1},
		{"server": map[string]any{"algorithm": "RENO"}, "seed": 2},
		{"server": map[string]any{"algorithm": "BIC"}, "seed": 1},
	}
	resp, data := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Total != len(jobs) {
		t.Fatalf("accepted total = %d, want %d", acc.Total, len(jobs))
	}
	var st JobStatus
	if getJSON(t, ts.URL+"/v1/jobs/"+acc.JobID+"?wait=30s", &st); st.State != StateDone || len(st.Results) != len(jobs) {
		t.Fatalf("job ended %s with %d results", st.State, len(st.Results))
	}
	// Done is reported before the worker retires the job; wait for that.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.jobMu.Lock()
		retired := slices.Contains(s.finished, acc.JobID)
		s.jobMu.Unlock()
		if retired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never retired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, ok := s.lookupJob(acc.JobID)
	if !ok {
		t.Fatal("retired job not retained")
	}
	j.mu.Lock()
	specs := j.specs
	j.mu.Unlock()
	if specs != nil {
		t.Fatalf("retired job still holds %d specs", len(specs))
	}
	if st := j.status(); st.Total != len(jobs) || len(st.Results) != len(jobs) {
		t.Fatalf("retired job status: total %d, %d results", st.Total, len(st.Results))
	}
}
