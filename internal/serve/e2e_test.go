package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestE2EServiceMatchesGolden is the end-to-end proof of the service's
// determinism contract: three concurrent clients submit the full quick
// experiment list over real HTTP at three different worker counts, with
// the output cache disabled so every job truly executes, while a fourth
// goroutine hammers /healthz and /metrics. Every job's output must be
// byte-identical to the committed golden file for its experiment — the
// same files ssbench's own golden test diffs against — regardless of
// worker count, job interleaving, or which runner picked the job up.
func TestE2EServiceMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e service test runs every quick experiment three times; skipped with -short")
	}

	golden := map[string][]byte{}
	for _, name := range experiments.Names() {
		b, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", name+".txt"))
		if err != nil {
			t.Fatalf("missing golden file (run `go test ./internal/experiments -run TestGoldenOutputs -update`): %v", err)
		}
		golden[name] = b
	}

	_, ts := newTestServer(t, Config{MaxRunning: 4, MaxQueue: 256, CacheEntries: -1})

	// Liveness prober: /healthz and /metrics must answer throughout the run.
	stopProbe := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-stopProbe:
				return
			case <-newTimer(50 * time.Millisecond).C:
			}
			for _, path := range []string{"/healthz", "/metrics"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s during load: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s during load = %d", path, resp.StatusCode)
					return
				}
			}
		}
	}()

	// Three clients, three worker counts: serial, two workers, one per CPU.
	// Client 1 watches its jobs through the progress stream; the others
	// poll the status endpoint. All must see golden bytes.
	var wg sync.WaitGroup
	for ci, workers := range []int{1, 2, 0} {
		wg.Add(1)
		go func(ci, workers int) {
			defer wg.Done()
			useStream := ci == 1
			for _, name := range experiments.Names() {
				body := fmt.Sprintf(`{"experiment":%q,"quick":true,"workers":%d}`, name, workers)
				resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: POST %s: %v", ci, name, err)
					return
				}
				var st Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("client %d: POST %s = %d (%v)", ci, name, resp.StatusCode, err)
					return
				}
				final := awaitJob(t, ts, st.ID, useStream)
				if final.State != StateDone {
					t.Errorf("client %d: job %s (%s) finished %s: %s", ci, st.ID, name, final.State, final.Error)
					return
				}
				out := fetchOutput(t, ts, st.ID)
				if !bytes.Equal(out, golden[name]) {
					t.Errorf("client %d: %s at workers=%d differs from golden (%d vs %d bytes)",
						ci, name, workers, len(out), len(golden[name]))
				}
			}
		}(ci, workers)
	}
	wg.Wait()
	close(stopProbe)
	<-probeDone
	if t.Failed() {
		return
	}

	// An "all" job must be the exact concatenation of the per-experiment
	// goldens — and byte-identical to a direct in-process render, closing
	// the loop between the service path and the batch path.
	var want bytes.Buffer
	for _, name := range experiments.Names() {
		want.Write(golden[name])
	}
	p := experiments.DefaultParams()
	p.Quick = true
	var direct bytes.Buffer
	if err := experiments.Run(&direct, "all", p); err != nil {
		t.Fatalf("direct Run(all): %v", err)
	}
	if !bytes.Equal(direct.Bytes(), want.Bytes()) {
		t.Fatal("direct Run(all) differs from concatenated goldens")
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"experiment":"all","quick":true}`))
	if err != nil {
		t.Fatalf("POST all: %v", err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	final := awaitJob(t, ts, st.ID, false)
	if final.State != StateDone {
		t.Fatalf("all job finished %s: %s", final.State, final.Error)
	}
	if out := fetchOutput(t, ts, st.ID); !bytes.Equal(out, want.Bytes()) {
		t.Fatal("service output for \"all\" differs from concatenated goldens")
	}

	// The metrics page must account for every job: 46 submissions, zero
	// cache hits (cache disabled), all finished done.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	nJobs := 3*len(experiments.Names()) + 1
	for _, wantLine := range []string{
		fmt.Sprintf("ssserve_jobs_submitted_total %d", nJobs),
		fmt.Sprintf("ssserve_jobs_finished_total{state=%q} %d", "done", nJobs),
		"ssserve_output_cache_hits_total 0",
	} {
		if !strings.Contains(string(mb), wantLine) {
			t.Errorf("metrics page is missing %q", wantLine)
		}
	}
}

// awaitJob waits for a job to settle, either by consuming its progress
// stream (each line a Status, terminal line last) or by polling the
// status endpoint.
func awaitJob(t *testing.T, ts *httptest.Server, id string, useStream bool) Status {
	t.Helper()
	deadline := newTimer(120 * time.Second)
	defer deadline.Stop()
	if useStream {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
		if err != nil {
			t.Fatalf("GET stream %s: %v", id, err)
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		var last Status
		for {
			var line Status
			if err := dec.Decode(&line); err != nil {
				if last.State.terminal() {
					return last
				}
				t.Fatalf("stream %s ended without a terminal state: %v", id, err)
			}
			if line.Total < line.Done {
				t.Fatalf("stream %s reported done %d > total %d", id, line.Done, line.Total)
			}
			last = line
			if last.State.terminal() {
				return last
			}
		}
	}
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET %s: %v", id, err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode %s: %v", id, err)
		}
		if st.State.terminal() {
			return st
		}
		select {
		case <-deadline.C:
			t.Fatalf("job %s stuck in state %s", id, st.State)
		case <-newTimer(20 * time.Millisecond).C:
		}
	}
}

// TestE2EInlineScenarioMatchesGolden closes the loop on the declarative
// path at service scale: a job carrying the arrivals builtin as an
// *inline* spec must produce exactly the bytes the registered "arrivals"
// experiment is pinned to — the service treats a spec-by-value and a
// spec-by-name identically.
func TestE2EInlineScenarioMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick arrivals sweep; skipped with -short")
	}
	golden, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", "arrivals.txt"))
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run TestGoldenOutputs -update`): %v", err)
	}
	_, ts := newTestServer(t, Config{MaxRunning: 2, CacheEntries: -1})

	_, raw := scenario.Builtin("arrivals")
	body, err := json.Marshal(Spec{Version: "v2", Experiment: "scenario",
		Quick: true, Scenario: json.RawMessage(raw)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST scenario job = %d (%v)", resp.StatusCode, err)
	}
	final := awaitJob(t, ts, st.ID, true)
	if final.State != StateDone {
		t.Fatalf("scenario job finished %s: %s", final.State, final.Error)
	}
	if out := fetchOutput(t, ts, st.ID); !bytes.Equal(out, golden) {
		t.Errorf("inline scenario output differs from the arrivals golden (%d vs %d bytes)",
			len(out), len(golden))
	}
}

// fetchOutput retrieves a done job's exact output bytes.
func fetchOutput(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/output")
	if err != nil {
		t.Fatalf("GET output %s: %v", id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET output %s = %d (%v)", id, resp.StatusCode, err)
	}
	return body
}
