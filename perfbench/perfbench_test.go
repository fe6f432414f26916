package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"

	"repro/internal/experiments"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs, so the golden files resolve.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func render(t *testing.T, exp string, seed int64, quick bool) []byte {
	t.Helper()
	p := experiments.DefaultParams()
	p.Seed, p.Quick = seed, quick
	var buf bytes.Buffer
	if err := experiments.Run(&buf, exp, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlippedByteIsCaught checks each verification path accepts the
// program's real output and rejects it with one byte flipped.
func TestFlippedByteIsCaught(t *testing.T) {
	refs, err := loadReferences([]string{"overhead"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		exp   string
		seed  int64
		quick bool
	}{
		{"golden bytes", "overhead", 1, true},
		{"quick digest", "overhead", 2, true},
		{"full-size digest", "mobility", 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := render(t, c.exp, c.seed, c.quick)
			if err := refs.check(c.exp, c.seed, c.quick, out); err != nil {
				t.Fatalf("real output rejected: %v", err)
			}
			out[len(out)/2] ^= 1
			if err := refs.check(c.exp, c.seed, c.quick, out); err == nil {
				t.Fatal("output with a flipped byte was accepted")
			}
		})
	}
}

func TestWorkloadSeeds(t *testing.T) {
	for _, c := range []struct{ arg, want int64 }{{1, 1}, {16, 16}, {17, 1}, {0, 16}, {-1, 15}} {
		if got := workloadSeed(c.arg); got != c.want {
			t.Errorf("workloadSeed(%d) = %d, want %d", c.arg, got, c.want)
		}
	}
	for ws := int64(1); ws <= digestSeeds; ws++ {
		seen := map[int64]bool{}
		for _, s := range serveSeeds(ws) {
			if seen[s] || s < 1 || s > digestSeeds {
				t.Fatalf("serveSeeds(%d) = %v: repeated or uncovered seed", ws, serveSeeds(ws))
			}
			seen[s] = true
		}
	}
}

func TestCalibration(t *testing.T) {
	if a, b := calibKernel(5000, 5000), calibKernel(5000, 5000); a != b {
		t.Fatalf("calibKernel is not deterministic: %v then %v", a, b)
	}
	res := runCalib()
	if len(res.Failures) > 0 || res.WallS <= 0 || res.CPUS <= 0 || res.Ops != 0 {
		t.Fatalf("runCalib = %+v, want positive times, no failures and no operations", res)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		{"repro/internal/netsim.(*Sim).Step", "netsim"},
		{"repro.RunFig12.func1", "sourcesync"},
		{"repro/internal/engine.Map[go.shape.struct { repro/x.A }]", "engine"},
		{"repro/internal/experiments.(*runner).printf", "other"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKey", "runtime"},
		{"math.Exp", "other"},
		{"", "other"},
	} {
		if got := layerOf(c.fn); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// TestLayerSharesSumToOne profiles some real work and checks the decoded
// shares cover it.
func TestLayerSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	render(t, "fig13", 1, true)
	pprof.StopCPUProfile()
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range shareLayers {
		sum += shares["share."+l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if shares["share.dsp"]+shares["share.channel"]+shares["share.modem"] == 0 {
		t.Fatalf("a PHY experiment's profile shows no PHY layer: %v", shares)
	}
}

// TestServeJobsVerifiesEveryJob drives a small job list through a real
// server with concurrent, traced clients (run it with -race): every output
// checks out, the second pass is all cache hits, and the trace is written.
func TestServeJobsVerifiesEveryJob(t *testing.T) {
	refs, err := loadReferences([]string{"overhead", "fig14"})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []serveJob{{"overhead", 1}, {"overhead", 2}, {"fig14", 1}, {"fig14", 2}}
	prefix := filepath.Join(t.TempDir(), "serve")
	res := serveJobs(jobs, refs, 0, prefix)
	if len(res.Failures) > 0 || res.Ops != 2*len(jobs) || len(res.Jobs) != 2*len(jobs) {
		t.Fatalf("ops %d, samples %d, failures %v", res.Ops, len(res.Jobs), res.Failures)
	}
	for i, j := range res.Jobs {
		if j.Hit != (i >= len(jobs)) {
			t.Errorf("job %d: cache hit %v", i, j.Hit)
		}
	}
	if _, err := os.Stat(prefix + ".spans.json"); err != nil {
		t.Error(err)
	}
}
