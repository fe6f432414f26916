package main_test

import (
	"bytes"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// binary is the sslint executable built once in TestMain and shared by
// every test (each `go test` run is a fresh process, so a package-level
// variable needs no synchronization).
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sslint-e2e-*")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "sslint")
	build := exec.Command("go", "build", "-o", binary, ".")
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("build sslint: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeModule materializes a throwaway module so the injected violation
// cannot touch (or depend on) the real tree.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module sslintfixture\n\ngo 1.24\n"
	for _, name := range slices.Sorted(maps.Keys(files)) {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(files[name]), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runIn executes cmd with args in dir, returning combined stdout+stderr
// and the exit code.
func runIn(t *testing.T, dir, cmd string, args ...string) (string, int) {
	t.Helper()
	c := exec.Command(cmd, args...)
	c.Dir = dir
	var buf bytes.Buffer
	c.Stdout = &buf
	c.Stderr = &buf
	err := c.Run()
	if err == nil {
		return buf.String(), 0
	}
	exit, isExit := err.(*exec.ExitError)
	if !isExit {
		t.Fatalf("%s %v: %v\n%s", cmd, args, err, buf.String())
	}
	return buf.String(), exit.ExitCode()
}

// The injected-violation source mirrors the bug class the contract exists
// for: a simulation package reading the wall clock.
const violatingSim = `package netsim

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}
`

const cleanSim = `package netsim

import "math/rand"

func Draw(rng *rand.Rand) float64 {
	return rng.Float64()
}

func Child(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`

// The Standalone tests invoke the binary directly, `sslint ./...`, which
// runs go vet with the binary as its vet tool.
func TestStandaloneReportsInjectedViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{"netsim/netsim.go": violatingSim})
	out, code := runIn(t, dir, binary, "./...")
	if code == 0 {
		t.Fatalf("sslint exited 0 on a module with a time.Now call:\n%s", out)
	}
	if !bytes.Contains([]byte(out), []byte("time.Now reads the wall clock")) ||
		!bytes.Contains([]byte(out), []byte("[detwallclock]")) {
		t.Errorf("output does not report the injected violation:\n%s", out)
	}
}

func TestStandaloneCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{"netsim/netsim.go": cleanSim})
	out, code := runIn(t, dir, binary, "./...")
	if code != 0 {
		t.Fatalf("sslint exited %d on a clean module:\n%s", code, out)
	}
}

func TestStandaloneHonorsSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{"netsim/netsim.go": `package netsim

import "time"

func Stamp() int64 {
	return time.Now().UnixNano() //sslint:allow detwallclock e2e-sanctioned timing site
}
`})
	out, code := runIn(t, dir, binary, "./...")
	if code != 0 {
		t.Fatalf("sslint exited %d despite the suppression:\n%s", code, out)
	}
}

func TestStandaloneReportsStaleSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{"netsim/netsim.go": `package netsim

func Stamp() int64 {
	return 0 //sslint:allow detwallclock nothing here reads the clock
}
`})
	out, code := runIn(t, dir, binary, "./...")
	if code == 0 {
		t.Fatalf("sslint exited 0 with a stale suppression in place:\n%s", out)
	}
	if !bytes.Contains([]byte(out), []byte("unused suppression")) {
		t.Errorf("output does not report the stale suppression:\n%s", out)
	}
}

// Each case's module holds one violating file among clean ones; together
// the five files make a module with seven findings. go vet chooses the
// packages and test variants sslint analyzes, so the internal _test.go
// file and the external _test package cases pin that test files stay
// analyzed.
var findingCases = []struct {
	name string
	file string
	src  string
	want []string // "file:line:col: message prefix", one per finding
}{
	{"wall clock and stale allow in a package", "netsim/netsim.go", `package netsim

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}

func Zero() int64 {
	return 0 //sslint:allow detwallclock nothing here reads the clock
}
`, []string{
		"netsim.go:6:9: time.Now reads the wall clock",
		"netsim.go:10:11: unused suppression: no detwallclock diagnostic",
	}},
	{"map-range float sum in an internal test file", "netsim/netsim_test.go", `package netsim

import "testing"

func TestSum(t *testing.T) {
	m := map[string]float64{"a": 1, "b": 2}
	var sum float64
	for _, v := range m {
		sum += v
	}
	_ = sum
}
`, []string{"netsim_test.go:8:2: range over map m accumulates a float"}},
	{"global rand draw in an external test package", "netsim/ext_test.go", `package netsim_test

import (
	"math/rand"
	"testing"
)

func TestDraw(t *testing.T) {
	_ = rand.Intn(10)
}
`, []string{"ext_test.go:9:6: rand.Intn draws from the process-wide source"}},
	{"mutex and go statement in dsp", "dsp/dsp.go", `package dsp

import "sync"

var mu sync.Mutex

func Spawn(f func()) {
	go f()
}
`, []string{
		"dsp.go:5:8: sync primitive (sync.Mutex) outside internal/engine and internal/serve",
		"dsp.go:8:2: go statement outside internal/engine and internal/serve",
	}},
	{"wall clock in a main package", "cmd/tool/main.go", `package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now())
}
`, []string{"main.go:9:14: time.Now reads the wall clock"}},
}

// findingRE matches each line of sslint output that reports a finding.
var findingRE = regexp.MustCompile(`(?m)^\S+\.go:\d+:\d+: .* \[\w+\]$`)

// checkFindings fails t unless out reports exactly the wanted findings.
func checkFindings(t *testing.T, out string, want []string) {
	t.Helper()
	got := findingRE.FindAllString(out, -1)
	if len(got) != len(want) {
		t.Errorf("%d findings, want %d:\n%s", len(got), len(want), out)
	}
	for _, w := range want {
		if !slices.ContainsFunc(got, func(line string) bool { return strings.HasPrefix(line, w) }) {
			t.Errorf("no finding %q in:\n%s", w, out)
		}
	}
}

func TestReportsEveryFinding(t *testing.T) {
	all := map[string]string{}
	var wantAll []string
	for _, c := range findingCases {
		all[c.file] = c.src
		wantAll = append(wantAll, c.want...)
		t.Run(c.name, func(t *testing.T) {
			files := map[string]string{c.file: c.src}
			if c.file != "netsim/netsim.go" {
				files["netsim/netsim.go"] = cleanSim
			}
			out, code := runIn(t, writeModule(t, files), binary, "./...")
			if code == 0 {
				t.Fatalf("sslint exited 0:\n%s", out)
			}
			checkFindings(t, out, c.want)
		})
	}
	t.Run("all seven", func(t *testing.T) {
		out, code := runIn(t, writeModule(t, all), binary, "./...")
		if code == 0 {
			t.Fatalf("sslint exited 0:\n%s", out)
		}
		checkFindings(t, out, wantAll)
	})
}

// TestVetToolProtocol drives the binary through cmd/go's -vettool
// handshake directly (-V=full, -flags, then one .cfg per package), as
// `go vet -vettool=sslint` users do.
func TestVetToolProtocol(t *testing.T) {
	dir := writeModule(t, map[string]string{"netsim/netsim.go": violatingSim})
	out, code := runIn(t, dir, "go", "vet", "-vettool="+binary, "./...")
	if code == 0 {
		t.Fatalf("go vet -vettool exited 0 on a module with a time.Now call:\n%s", out)
	}
	if !bytes.Contains([]byte(out), []byte("time.Now reads the wall clock")) {
		t.Errorf("vet output does not report the injected violation:\n%s", out)
	}

	clean := writeModule(t, map[string]string{"netsim/netsim.go": cleanSim})
	out, code = runIn(t, clean, "go", "vet", "-vettool="+binary, "./...")
	if code != 0 {
		t.Fatalf("go vet -vettool exited %d on a clean module:\n%s", code, out)
	}
}
