package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"extra"}, {"-no-such-flag"}, {"-max-running", "x"}} {
		var stderr bytes.Buffer
		if err := run(context.Background(), args, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage of ssserve") {
			t.Errorf("run(%q) printed no usage:\n%s", args, stderr.String())
		}
	}
}

// TestRunReturnsWhenCanceled: with its context already done, run still
// listens, then shuts down, closes the job service and returns nil.
func TestRunReturnsWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	if err := run(ctx, []string{"-addr", "127.0.0.1:0"}, &stderr); err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
	if !strings.Contains(stderr.String(), "ssserve listening on 127.0.0.1:") {
		t.Fatalf("stderr %q lacks the listen address", stderr.String())
	}
}

func TestRunReportsListenError(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:-1"}, new(bytes.Buffer)); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("run on a bad address = %v, want a listen error", err)
	}
}

// TestSIGTERMCancelsRunningJob runs the built daemon, starts a full-size
// job, waits until it is running and sends SIGTERM: the process must shut
// down, cancel the job and exit 0.
func TestSIGTERMCancelsRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ssserve binary; skipped with -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build ssserve")
	}
	bin := filepath.Join(t.TempDir(), "ssserve")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-running", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	line, err := bufio.NewReader(stderr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the listen line: %v", err)
	}
	url := "http://" + strings.TrimSpace(strings.TrimPrefix(line, "ssserve listening on "))

	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(`{"experiment":"fig12"}`))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var st struct{ ID, State string }
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode status: %v", err)
	}
	// The progress stream prints one status line per tick until the job
	// settles; read it until the job runs.
	resp, err = http.Get(url + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	dec := json.NewDecoder(resp.Body)
	for st.State != "running" {
		if err := dec.Decode(&st); err != nil {
			t.Fatalf("job never ran (last state %q): %v", st.State, err)
		}
	}
	resp.Body.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("ssserve exited with %v after SIGTERM, want status 0", err)
	}
}
