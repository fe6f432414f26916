package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// waitState blocks until the job reaches a terminal state.
func waitState(t *testing.T, j *Job) State {
	t.Helper()
	select {
	case <-j.Done():
	case <-newTimer(10 * time.Second).C:
		t.Fatalf("job %s did not settle (state %s)", j.ID, j.StateNow())
	}
	return j.StateNow()
}

// fakeRun returns a runFn that writes fixed output after release is
// closed (nil release means immediately), honoring cooperative
// cancellation while it waits.
func fakeRun(release <-chan struct{}, calls *int32) func(*bytes.Buffer, string, experiments.Params) error {
	return func(buf *bytes.Buffer, name string, p experiments.Params) error {
		if calls != nil {
			*calls++ // runners may race on this; tests using calls run MaxRunning=1
		}
		if release != nil {
			for {
				select {
				case <-release:
				case <-newTimer(time.Millisecond).C:
					if !p.Monitor.Canceled() {
						continue
					}
					return experiments.ErrCanceled
				}
				break
			}
		}
		fmt.Fprintf(buf, "output of %s seed=%d\n", name, p.Seed)
		return nil
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := New(Config{MaxRunning: 1})
	defer s.Close()
	for _, spec := range []Spec{
		{},
		{Experiment: "nope"},
		{Experiment: "fig12", Workers: -1},
		{Experiment: "fig12", TimeoutSec: -2},
		{Experiment: "cellsweep", Options: &experiments.Options{Cells: []int{0}}},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted a bad spec", spec)
		}
	}
}

func TestSubmitNormalizesSpec(t *testing.T) {
	s := New(Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})
	defer s.Close()
	j, err := s.Submit(Spec{Experiment: "  FIG12 "})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Spec.Experiment != "fig12" {
		t.Errorf("experiment not normalized: %q", j.Spec.Experiment)
	}
	if j.Spec.Seed == nil || *j.Spec.Seed != 1 {
		t.Errorf("seed default not applied: %v", j.Spec.Seed)
	}
	if waitState(t, j) != StateDone {
		t.Fatalf("state = %s, want done", j.StateNow())
	}
	out, ok := j.Output()
	if !ok || !strings.Contains(string(out), "output of fig12 seed=1") {
		t.Errorf("Output() = %q, %t", out, ok)
	}
}

func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{MaxRunning: 1, MaxQueue: 1, CacheEntries: -1, runFn: fakeRun(release, nil)})
	defer s.Close()
	defer close(release)

	// First job occupies the single runner; distinct seeds dodge any cache.
	j1, err := s.Submit(Spec{Experiment: "fig12", Seed: ptr(int64(1))})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// Wait until it is actually running so the queue slot is free again.
	for j1.StateNow() != StateRunning {
		<-newTimer(time.Millisecond).C
	}
	if _, err := s.Submit(Spec{Experiment: "fig12", Seed: ptr(int64(2))}); err != nil {
		t.Fatalf("submit 2 (should queue): %v", err)
	}
	_, err = s.Submit(Spec{Experiment: "fig12", Seed: ptr(int64(3))})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit 3: err = %v, want ErrQueueFull", err)
	}
	// The rejected job must not linger in the job table.
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("Jobs() has %d entries, want 2", got)
	}
}

func TestConcurrentSubmitsAgainstFullQueue(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{MaxRunning: 1, MaxQueue: 1, CacheEntries: -1, runFn: fakeRun(release, nil)})
	defer s.Close()
	defer close(release)

	j1, err := s.Submit(Spec{Experiment: "fig12", Seed: ptr(int64(1))})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	for j1.StateNow() != StateRunning {
		<-newTimer(time.Millisecond).C
	}

	// The single queue slot is open and the runner is pinned; of these
	// concurrent submits exactly one can win the slot and the rest must be
	// rejected without corrupting the job table (a rollback that truncated
	// s.order used to drop a concurrent winner's ID while leaving the
	// loser's, making Jobs() yield a nil job).
	var wg sync.WaitGroup
	var accepted atomic.Int32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := s.Submit(Spec{Experiment: "fig12", Seed: ptr(seed)})
			switch {
			case err == nil:
				accepted.Add(1)
			case !errors.Is(err, ErrQueueFull):
				t.Errorf("submit seed=%d: %v, want nil or ErrQueueFull", seed, err)
			}
		}(int64(i + 2))
	}
	wg.Wait()
	if got := accepted.Load(); got != 1 {
		t.Errorf("%d submits won the single queue slot, want 1", got)
	}
	jobs := s.Jobs()
	if len(jobs) != 2 {
		t.Errorf("Jobs() has %d entries, want 2 (running + queued)", len(jobs))
	}
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("Jobs()[%d] is nil: a rejected submit left a stale ID in s.order", i)
		}
		j.Status() // what handleList does; must not panic
	}
}

func TestSubmitDuringCloseDoesNotPanic(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := New(Config{MaxRunning: 2, MaxQueue: 2, CacheEntries: -1, runFn: fakeRun(release, nil)})

	// Hammer Submit from several goroutines while Close runs. The queue
	// send used to happen outside s.mu, so a submit could race Close's
	// close(s.queue) and crash the daemon with "send on closed channel".
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for n := int64(0); ; n++ {
				_, err := s.Submit(Spec{Experiment: "fig12", Seed: ptr(base*1_000_000 + n)})
				if errors.Is(err, ErrClosed) {
					return
				}
			}
		}(int64(i))
	}
	<-newTimer(5 * time.Millisecond).C
	s.Close()
	wg.Wait()
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{MaxRunning: 1, MaxQueue: 4, CacheEntries: -1, runFn: fakeRun(release, nil)})
	defer s.Close()
	defer close(release)

	j1, _ := s.Submit(Spec{Experiment: "fig12", Seed: ptr(int64(1))})
	for j1.StateNow() != StateRunning {
		<-newTimer(time.Millisecond).C
	}
	j2, err := s.Submit(Spec{Experiment: "fig12", Seed: ptr(int64(2))})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	jc, ok := s.Cancel(j2.ID)
	if !ok || jc != j2 {
		t.Fatalf("Cancel(%s) = %v, %t", j2.ID, jc, ok)
	}
	// A queued cancel settles immediately, without waiting for a runner.
	if st := j2.StateNow(); st != StateCanceled {
		t.Fatalf("canceled queued job state = %s, want canceled", st)
	}
	if _, ok := j2.Output(); ok {
		t.Error("canceled job leaked output")
	}
}

func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := New(Config{MaxRunning: 1, CacheEntries: -1, runFn: fakeRun(release, nil)})
	defer s.Close()

	j, _ := s.Submit(Spec{Experiment: "fig12"})
	for j.StateNow() != StateRunning {
		<-newTimer(time.Millisecond).C
	}
	if _, ok := s.Cancel(j.ID); !ok {
		t.Fatal("Cancel returned !ok")
	}
	if st := waitState(t, j); st != StateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	if _, ok := j.Output(); ok {
		t.Error("canceled job leaked output")
	}
}

func TestCancelUnknownOrTerminal(t *testing.T) {
	s := New(Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})
	defer s.Close()
	if _, ok := s.Cancel("j999"); ok {
		t.Error("Cancel of unknown job returned ok")
	}
	j, _ := s.Submit(Spec{Experiment: "fig12"})
	waitState(t, j)
	s.Cancel(j.ID) // must not disturb a terminal job
	if st := j.StateNow(); st != StateDone {
		t.Errorf("done job state after Cancel = %s", st)
	}
	if _, ok := j.Output(); !ok {
		t.Error("done job lost its output after a late Cancel")
	}
}

func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := New(Config{MaxRunning: 1, CacheEntries: -1, runFn: fakeRun(release, nil)})
	defer s.Close()

	j, err := s.Submit(Spec{Experiment: "fig12", TimeoutSec: 0.02})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitState(t, j); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if st := j.Status(); !strings.Contains(st.Error, "timed out") {
		t.Errorf("error = %q, want a timeout message", st.Error)
	}
	if _, ok := j.Output(); ok {
		t.Error("timed-out job leaked output")
	}
}

func TestRunPanicBecomesFailed(t *testing.T) {
	s := New(Config{MaxRunning: 1, runFn: func(buf *bytes.Buffer, name string, p experiments.Params) error {
		panic("boom")
	}})
	defer s.Close()
	j, _ := s.Submit(Spec{Experiment: "fig12"})
	if st := waitState(t, j); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if st := j.Status(); !strings.Contains(st.Error, "boom") {
		t.Errorf("error = %q, want the panic value", st.Error)
	}
}

func TestUnplaceableSpecFailsJobNotServer(t *testing.T) {
	// Eight APs cannot keep a quarter floor-width apart on the cell
	// family's floor, so placement panics inside an engine worker. The
	// engine re-raises the panic on the job's render goroutine: the job
	// settles failed with the testbed's message, and the daemon keeps
	// answering.
	_, ts := newTestServer(t, Config{MaxRunning: 1, CacheEntries: -1})
	resp, st := postJob(t, ts, `{"experiment":"scenario","workers":4,"scenario":{"version":1,"name":"crowded",
		"topology":{"family":"cell","placements":4,"aps":8,"clients":2},
		"traffic":{"model":"backlogged","packets":10,"payload_bytes":1460}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", resp.StatusCode)
	}
	final := awaitJob(t, ts, st.ID, false)
	if final.State != StateFailed || !strings.Contains(final.Error, "testbed: no point") {
		t.Fatalf("job settled %s (%q), want failed with the placement panic", final.State, final.Error)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after the failed job: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after the failed job = %d", hr.StatusCode)
	}
}

func TestOutputCacheIgnoresWorkersAndTimeout(t *testing.T) {
	var calls int32
	s := New(Config{MaxRunning: 1, runFn: fakeRun(nil, &calls)})
	defer s.Close()

	j1, _ := s.Submit(Spec{Experiment: "fig12", Workers: 1})
	waitState(t, j1)
	out1, _ := j1.Output()

	// Same spec at a different worker count and timeout: cache hit, because
	// the determinism contract makes workers unobservable in the output.
	j2, err := s.Submit(Spec{Experiment: "fig12", Workers: 4, TimeoutSec: 99})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if st := waitState(t, j2); st != StateDone {
		t.Fatalf("cached job state = %s", st)
	}
	if st := j2.Status(); !st.CacheHit {
		t.Error("second submit was not a cache hit")
	}
	out2, _ := j2.Output()
	if !bytes.Equal(out1, out2) {
		t.Error("cache returned different bytes")
	}
	if calls != 1 {
		t.Errorf("runFn ran %d times, want 1", calls)
	}

	// A different seed is a different key.
	j3, _ := s.Submit(Spec{Experiment: "fig12", Seed: ptr(int64(7))})
	waitState(t, j3)
	if st := j3.Status(); st.CacheHit {
		t.Error("different seed wrongly hit the cache")
	}
	if calls != 2 {
		t.Errorf("runFn ran %d times, want 2", calls)
	}
}

func TestOutputCacheDisabledAndBounded(t *testing.T) {
	var calls int32
	s := New(Config{MaxRunning: 1, CacheEntries: -1, runFn: fakeRun(nil, &calls)})
	j, _ := s.Submit(Spec{Experiment: "fig12"})
	waitState(t, j)
	j2, _ := s.Submit(Spec{Experiment: "fig12"})
	waitState(t, j2)
	s.Close()
	if calls != 2 {
		t.Errorf("disabled cache: runFn ran %d times, want 2", calls)
	}

	// CacheEntries 1 evicts FIFO: fig12 is pushed out by fig13.
	calls = 0
	s = New(Config{MaxRunning: 1, CacheEntries: 1, runFn: fakeRun(nil, &calls)})
	defer s.Close()
	for _, exp := range []string{"fig12", "fig13", "fig12"} {
		j, _ := s.Submit(Spec{Experiment: exp})
		waitState(t, j)
	}
	if calls != 3 {
		t.Errorf("bounded cache: runFn ran %d times, want 3 (FIFO eviction)", calls)
	}
}

// TestDoneFollowsCacheAndMetrics holds settle's order: a client woken by
// Done must see every effect of the finished job, so the finished metric
// already counts it and a resubmit of its spec hits the cache. Each
// iteration races the waiter against the runner's settle on a fresh
// server; an order that closes done before those steps fails within a
// few thousand iterations.
func TestDoneFollowsCacheAndMetrics(t *testing.T) {
	const iters = 20000
	uncounted, missed := 0, 0
	for i := 0; i < iters; i++ {
		s := New(Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})
		j, err := s.Submit(Spec{Experiment: "fig12"})
		if err != nil {
			t.Fatalf("iteration %d: submit: %v", i, err)
		}
		if st := waitState(t, j); st != StateDone {
			t.Fatalf("iteration %d: job settled %s", i, st)
		}
		s.metrics.mu.Lock()
		finished := s.metrics.finishedBy[StateDone] // ssserve_jobs_finished_total{state="done"}
		s.metrics.mu.Unlock()
		if finished != 1 {
			uncounted++
		}
		j2, err := s.Submit(Spec{Experiment: "fig12"})
		if err != nil {
			t.Fatalf("iteration %d: resubmit: %v", i, err)
		}
		if !j2.Status().CacheHit {
			missed++
		}
		s.Close()
	}
	if uncounted > 0 || missed > 0 {
		t.Fatalf("over %d jobs, %d waiters found the finished metric uncounted and %d resubmits missed the cache",
			iters, uncounted, missed)
	}
}

func TestJobTableRetention(t *testing.T) {
	s := New(Config{MaxRunning: 1, MaxJobs: 2, CacheEntries: -1, runFn: fakeRun(nil, nil)})
	defer s.Close()
	for seed := int64(1); seed <= 4; seed++ {
		j, err := s.Submit(Spec{Experiment: "fig12", Seed: ptr(seed)})
		if err != nil {
			t.Fatalf("submit seed=%d: %v", seed, err)
		}
		waitState(t, j)
	}
	// Eviction trails the terminal transition (the done channel closes
	// under the job lock, the table prunes under the server lock just
	// after), so poll briefly.
	deadline := newTimer(10 * time.Second)
	for len(s.Jobs()) != 2 {
		select {
		case <-deadline.C:
			t.Fatalf("Jobs() still has %d entries, want 2 after eviction", len(s.Jobs()))
		case <-newTimer(time.Millisecond).C:
		}
	}
	jobs := s.Jobs()
	if jobs[0].ID != "j3" || jobs[1].ID != "j4" {
		t.Errorf("retained jobs = %s,%s, want j3,j4 (oldest terminal evicted first)", jobs[0].ID, jobs[1].ID)
	}
	if _, ok := s.Get("j1"); ok {
		t.Error("evicted job j1 is still reachable by ID")
	}

	// Negative MaxJobs retains everything.
	s2 := New(Config{MaxRunning: 1, MaxJobs: -1, CacheEntries: -1, runFn: fakeRun(nil, nil)})
	defer s2.Close()
	for seed := int64(1); seed <= 4; seed++ {
		j, _ := s2.Submit(Spec{Experiment: "fig12", Seed: ptr(seed)})
		waitState(t, j)
	}
	if got := len(s2.Jobs()); got != 4 {
		t.Errorf("MaxJobs=-1 retained %d jobs, want all 4", got)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})
	s.Close()
	if _, err := s.Submit(Spec{Experiment: "fig12"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

func ptr[T any](v T) *T { return &v }

// --- HTTP layer ---

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	}
	return resp, st
}

func TestHTTPSubmitStatusOutput(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})

	resp, st := postJob(t, ts, `{"experiment":"fig12","quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	j, ok := s.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in table", st.ID)
	}
	waitState(t, j)

	gr, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	var got Status
	json.NewDecoder(gr.Body).Decode(&got)
	gr.Body.Close()
	if got.State != StateDone {
		t.Fatalf("status state = %s, want done", got.State)
	}

	or, err := http.Get(ts.URL + "/jobs/" + st.ID + "/output")
	if err != nil {
		t.Fatalf("GET output: %v", err)
	}
	body, _ := io.ReadAll(or.Body)
	or.Body.Close()
	if or.StatusCode != http.StatusOK || !strings.Contains(string(body), "output of fig12") {
		t.Fatalf("GET output = %d %q", or.StatusCode, body)
	}
	if ct := or.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("output Content-Type = %q", ct)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Config{MaxRunning: 1, MaxQueue: 1, CacheEntries: -1, runFn: fakeRun(release, nil)})

	// Bad JSON and bad specs are 400s.
	for _, body := range []string{`{`, `{"experiment":"nope"}`, `{"experiment":"fig12","bogus":1}`} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown job IDs are 404s on every job route.
	for _, url := range []string{"/jobs/j999", "/jobs/j999/output", "/jobs/j999/stream"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}
	cr, _ := http.Post(ts.URL+"/jobs/j999/cancel", "", nil)
	cr.Body.Close()
	if cr.StatusCode != http.StatusNotFound {
		t.Errorf("POST cancel unknown = %d, want 404", cr.StatusCode)
	}

	// Output of a non-done job is a 409.
	resp, st := postJob(t, ts, `{"experiment":"fig12"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	or, _ := http.Get(ts.URL + "/jobs/" + st.ID + "/output")
	or.Body.Close()
	if or.StatusCode != http.StatusConflict {
		t.Errorf("GET output of unfinished job = %d, want 409", or.StatusCode)
	}

	// Fill queue: one running (above), one queued, then 503.
	postJob(t, ts, `{"experiment":"fig12","seed":2}`)
	fr, _ := postJob(t, ts, `{"experiment":"fig12","seed":3}`)
	if fr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST to full queue = %d, want 503", fr.StatusCode)
	}
}

func TestHTTPSubmitRejectsOversizedBody(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})
	body := `{"experiment":"fig12","quick":true,"pad":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, _ := postJob(t, ts, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of a %d-byte body = %d, want 413", len(body), resp.StatusCode)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs created by an oversized body", n)
	}
	// A spec padded with whitespace to just under the cap is still a spec.
	spec := `{"experiment":"fig12","quick":true}`
	if resp, _ := postJob(t, ts, spec+strings.Repeat(" ", maxSpecBytes-len(spec))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST of a body at the cap = %d, want 202", resp.StatusCode)
	}
}

func TestHTTPSubmitRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})
	for _, body := range []string{
		`{"experiment":"fig12","quick":true}garbage`,
		`{"experiment":"fig12","quick":true}}`,
		`{"experiment":"fig12","quick":true} {"experiment":"fig13"}`,
	} {
		if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs created by specs with trailing data", n)
	}
	if resp, _ := postJob(t, ts, "{\"experiment\":\"fig12\",\"quick\":true}\n\t "); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST with trailing whitespace = %d, want 202", resp.StatusCode)
	}
}

func TestHTTPCancelAndStream(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Config{MaxRunning: 1, CacheEntries: -1, runFn: fakeRun(release, nil)})

	_, st := postJob(t, ts, `{"experiment":"fig12"}`)

	// Open the stream, then cancel; the stream must end on a terminal line.
	sr, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer sr.Body.Close()
	if ct := sr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}

	cr, err := http.Post(ts.URL+"/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("POST cancel = %d", cr.StatusCode)
	}

	dec := json.NewDecoder(sr.Body)
	var last Status
	for {
		var line Status
		if err := dec.Decode(&line); err != nil {
			break
		}
		last = line
	}
	if last.State != StateCanceled {
		t.Fatalf("final stream state = %s, want canceled", last.State)
	}
}

func TestHTTPListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})
	postJob(t, ts, `{"experiment":"fig12"}`)
	postJob(t, ts, `{"experiment":"fig13"}`)
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	defer resp.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(list) != 2 || list[0].ID != "j1" || list[1].ID != "j2" {
		t.Fatalf("GET /jobs = %+v, want j1,j2 in submission order", list)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRunning: 1, runFn: fakeRun(nil, nil)})

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || strings.TrimSpace(string(hb)) != "ok" {
		t.Fatalf("GET /healthz = %d %q", hr.StatusCode, hb)
	}

	// Run one real-ish job (fake run) and one cache hit, then read metrics.
	j, _ := s.Submit(Spec{Experiment: "fig12"})
	waitState(t, j)
	j2, _ := s.Submit(Spec{Experiment: "fig12"})
	waitState(t, j2)

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	m := string(mb)
	for _, want := range []string{
		"ssserve_jobs_submitted_total 2",
		"ssserve_jobs_rejected_total 0",
		"ssserve_jobs_queued ",
		"ssserve_jobs_running ",
		`ssserve_jobs_finished_total{state="done"} 1`,
		"ssserve_output_cache_hits_total 1",
		"ssserve_output_cache_misses_total 1",
		`ssserve_memo_entries{memo="dsp.fft_plans"} `,
		`ssserve_memo_entries{memo="netsim.thresholds"} `,
		`ssserve_memo_entries{memo="permodel.cert_tables"} `,
		`ssserve_experiment_runs_total{experiment="fig12"} 1`,
		`ssserve_experiment_run_seconds_sum{experiment="fig12"}`,
		`ssserve_experiment_run_seconds_max{experiment="fig12"}`,
		"ssserve_goroutines ",
		"ssserve_heap_alloc_bytes ",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics page is missing %q\n%s", want, m)
		}
	}
	var memoLines []string
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, "ssserve_memo_entries") {
			memoLines = append(memoLines, line)
		}
	}
	if !slices.IsSorted(memoLines) {
		t.Errorf("memo lines are not sorted by name:\n%s", strings.Join(memoLines, "\n"))
	}
}

func TestStatusProgressFromMonitor(t *testing.T) {
	// A runFn that drives the real engine with the job's monitor, so trial
	// progress surfaces in the job Status exactly as a real experiment's
	// would.
	s := New(Config{MaxRunning: 1, runFn: func(buf *bytes.Buffer, name string, p experiments.Params) error {
		engine.Map(engine.Config{Seed: p.Seed, Workers: 1, Monitor: p.Monitor}, 0, 5,
			func(trial int, rng *rand.Rand) int { return trial })
		buf.WriteString("done\n")
		return nil
	}})
	defer s.Close()
	j, _ := s.Submit(Spec{Experiment: "fig12"})
	waitState(t, j)
	st := j.Status()
	if st.Done != 5 || st.Total != 5 {
		t.Fatalf("progress = %d/%d, want 5/5", st.Done, st.Total)
	}
}

func TestPprofEndpointsServeProfiles(t *testing.T) {
	// The profiling routes are part of the service surface (operators
	// profile the netsim hot path in situ through them), so smoke-test that
	// the index and a cheap profile actually answer. The CPU profile
	// endpoint is skipped: it blocks for its sampling window.
	_, ts := newTestServer(t, Config{runFn: fakeRun(nil, nil)})
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/heap?debug=1",
		"/debug/pprof/goroutine?debug=1",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, body %q", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
}

// TestServeShutsDownWithRunningJob cancels Serve's context while a job is
// running: Serve must return nil and stop answering, and the Close that
// follows must cancel the job and drain the runner.
func TestServeShutsDownWithRunningJob(t *testing.T) {
	s := New(Config{MaxRunning: 1, CacheEntries: -1, runFn: fakeRun(make(chan struct{}), nil)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(`{"experiment":"fig12"}`))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode status: %v", err)
	}
	j, ok := s.Get(st.ID)
	if !ok {
		t.Fatalf("job %q not found", st.ID)
	}
	for j.StateNow() != StateRunning {
		<-newTimer(time.Millisecond).C
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still answering after Serve returned")
	}
	s.Close()
	if got := j.StateNow(); got != StateCanceled {
		t.Fatalf("job state after Close = %s, want %s", got, StateCanceled)
	}
}
