package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden files from the current code:
//
//	go test ./internal/experiments -run TestGolden -update
//
// Review the diff before committing — the golden files are the repo's
// record of every experiment's exact quick-mode output (seed 1, default
// sweeps), which TestGoldenOutputs and the ssserve e2e suite diff against,
// and of the full-size output of the experiments that no perfbench digest
// pins, which TestGoldenFullSize diffs against.
var update = flag.Bool("update", false, "rewrite the golden experiment outputs")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// fullSize lists the experiments whose full-size output perfbench's
// workloads never render, so only testdata/full pins it.
var fullSize = []string{"fig14", "fig15", "fig16", "overhead"}

// TestGoldenOutputs renders every registered experiment in quick mode at
// seed 1 and diffs the bytes against the committed golden file — at two
// worker counts, so a determinism break that slips past review shows up
// as a golden mismatch, not just an e2e failure.
func TestGoldenOutputs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, true, goldenPath(name)) })
	}
}

// TestGoldenFullSize does the same at full size for the experiments in
// fullSize, against testdata/full.
func TestGoldenFullSize(t *testing.T) {
	for _, name := range fullSize {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, false, filepath.Join("testdata", "full", name+".txt"))
		})
	}
}

// checkGolden renders name at seed 1 with four workers and diffs the bytes
// against the file at path (or rewrites it under -update), then, unless
// -short, renders it serially and diffs again.
func checkGolden(t *testing.T, name string, quick bool, path string) {
	p := DefaultParams()
	p.Quick = quick
	p.Workers = 4
	var buf bytes.Buffer
	if err := Run(&buf, name, p); err != nil {
		t.Fatalf("Run(%q): %v", name, err)
	}
	got := buf.Bytes()

	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file for %q (run with -update to create it): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output of %q (workers=4) differs from %s\n%s", name, path, firstDiff(got, want))
	}

	if testing.Short() {
		return
	}
	// Serial pass: the determinism contract says the worker count is
	// unobservable in the bytes.
	p.Workers = 1
	buf.Reset()
	if err := Run(&buf, name, p); err != nil {
		t.Fatalf("Run(%q) serial: %v", name, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output of %q at workers=1 differs from %s (determinism break)\n%s",
			name, path, firstDiff(buf.Bytes(), want))
	}
}

// TestGoldenFilesHaveNoStrays ensures every committed golden file still
// corresponds to a registered experiment.
func TestGoldenFilesHaveNoStrays(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("read testdata/golden: %v", err)
	}
	known := map[string]bool{}
	for _, name := range Names() {
		known[name+".txt"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("testdata/golden/%s does not match any registered experiment", e.Name())
		}
	}
}

// firstDiff renders the first differing line of two outputs, with a
// little context, for a readable failure message.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: got %d lines, want %d", len(gl), len(wl))
}
