package main

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkSaturatedDomain    \t       1\t    321815 ns/op\t   1245489 frames/s", "repro/internal/netsim")
	if !ok {
		t.Fatal("line not recognized")
	}
	if b.Name != "BenchmarkSaturatedDomain" || b.Package != "repro/internal/netsim" {
		t.Fatalf("identity: %+v", b)
	}
	if b.Iterations != 1 || b.NsPerOp != 321815 {
		t.Fatalf("timing: %+v", b)
	}
	if b.Metrics["frames/s"] != 1245489 {
		t.Fatalf("metrics: %+v", b.Metrics)
	}
}

func TestRequirementsGateOnPackageAndName(t *testing.T) {
	// The CI contract: -require 'netsim.*Interference' must accept an
	// artifact carrying the interference benchmarks and reject one where
	// the suite vanished (or only other packages survived).
	reqs, err := parseRequirements([]string{`netsim.*Interference`})
	if err != nil {
		t.Fatal(err)
	}
	with := []Benchmark{
		{Name: "BenchmarkFig12SyncError", Package: "repro"},
		{Name: "BenchmarkInterferenceRateAware", Package: "repro/internal/netsim"},
	}
	if unmet := unmetRequirements(with, reqs); len(unmet) != 0 {
		t.Fatalf("interference benchmark present but not matched: %v", unmet)
	}
	without := []Benchmark{
		{Name: "BenchmarkFig12SyncError", Package: "repro"},
		{Name: "BenchmarkSaturatedDomain", Package: "repro/internal/netsim"},
		{Name: "BenchmarkInterferenceRateAware", Package: "repro/internal/other"},
	}
	if unmet := unmetRequirements(without, reqs); len(unmet) != 1 {
		t.Fatalf("artifact with no netsim interference benchmark passed: %v", unmet)
	}
}

func TestRequirementsGateOnMetricUnit(t *testing.T) {
	// The StepScaling guard: the benchmark being present is not enough —
	// its ReportMetric lines must have survived into the artifact, or the
	// baseline gate downstream would silently compare nothing.
	benchmarks := []Benchmark{
		{Name: "BenchmarkStepScaling/flows=10000", Package: "repro/internal/netsim",
			Metrics: map[string]float64{"ns/event": 7500, "events/s": 133000}},
		{Name: "BenchmarkStepScaling/flows=100000", Package: "repro/internal/netsim"},
	}
	reqs, err := parseRequirements([]string{
		`StepScaling/flows=10000$@ns/event`, // present with the metric
		`StepScaling/flows=10000$@ns/op`,    // ns/op is implicit on every benchmark
		`StepScaling/flows=100000@ns/event`, // benchmark there, metric dropped
		`StepScaling/flows=1000$@ns/event`,  // benchmark missing entirely
	})
	if err != nil {
		t.Fatal(err)
	}
	unmet := unmetRequirements(benchmarks, reqs)
	if len(unmet) != 2 {
		t.Fatalf("want 2 unmet requirements, got %d: %v", len(unmet), unmet)
	}
	if !strings.Contains(unmet[0], "ns/event") || !strings.Contains(unmet[0], "flows=100000") {
		t.Errorf("first violation should name the dropped metric: %q", unmet[0])
	}
	if !strings.Contains(unmet[1], "flows=1000$") {
		t.Errorf("second violation should name the missing benchmark: %q", unmet[1])
	}
}

func TestParseRequirementsRejectsBadValues(t *testing.T) {
	if _, err := parseRequirements([]string{`StepScaling@`}); err == nil {
		t.Error("empty unit after @ accepted")
	}
	if _, err := parseRequirements([]string{`[unclosed`}); err == nil {
		t.Error("bad regexp accepted")
	}
}

func TestCompareBaseline(t *testing.T) {
	base := []Benchmark{
		{Name: "BenchmarkStepScaling/flows=10000", Package: "repro/internal/netsim",
			NsPerOp: 4e9, Metrics: map[string]float64{"ns/event": 11000, "events/s": 90000}},
		{Name: "BenchmarkSaturatedDomain", Package: "repro/internal/netsim",
			NsPerOp: 3e5, Metrics: map[string]float64{"frames/s": 1e6}},
	}

	t.Run("within budget passes, new benchmarks ignored", func(t *testing.T) {
		cur := []Benchmark{
			{Name: "BenchmarkStepScaling/flows=10000", Package: "repro/internal/netsim",
				NsPerOp: 8e9, Metrics: map[string]float64{"ns/event": 20000, "events/s": 50000}},
			{Name: "BenchmarkSaturatedDomain", Package: "repro/internal/netsim",
				NsPerOp: 2e5, Metrics: map[string]float64{"frames/s": 2e6}},
			{Name: "BenchmarkBrandNew", Package: "repro", NsPerOp: 1e12},
		}
		if bad := compareBaseline(base, cur, 5); len(bad) != 0 {
			t.Fatalf("within-budget run flagged: %v", bad)
		}
	})

	t.Run("latency regression fails", func(t *testing.T) {
		cur := []Benchmark{
			{Name: "BenchmarkStepScaling/flows=10000", Package: "repro/internal/netsim",
				NsPerOp: 4e9, Metrics: map[string]float64{"ns/event": 66000, "events/s": 90000}},
			base[1],
		}
		bad := compareBaseline(base, cur, 5)
		if len(bad) != 1 || !strings.Contains(bad[0], "ns/event") {
			t.Fatalf("6x ns/event regression not flagged: %v", bad)
		}
	})

	t.Run("rate regression fails downward", func(t *testing.T) {
		cur := []Benchmark{
			base[0],
			{Name: "BenchmarkSaturatedDomain", Package: "repro/internal/netsim",
				NsPerOp: 3e5, Metrics: map[string]float64{"frames/s": 1e5}},
		}
		bad := compareBaseline(base, cur, 5)
		if len(bad) != 1 || !strings.Contains(bad[0], "frames/s") {
			t.Fatalf("10x frames/s drop not flagged: %v", bad)
		}
	})

	t.Run("missing baseline benchmark fails", func(t *testing.T) {
		bad := compareBaseline(base, base[:1], 5)
		if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
			t.Fatalf("vanished benchmark not flagged: %v", bad)
		}
	})
}

func TestLowerIsBetter(t *testing.T) {
	for _, c := range []struct {
		unit string
		want bool
	}{
		{"ns/op", true}, {"ns/event", true}, {"frames/s", false}, {"events/s", false},
		{"speedup-x", false}, // a ratio: the parallel path getting faster is not a regression
		{"B/op", true}, {"allocs/op", true},
	} {
		if lowerIsBetter(c.unit) != c.want {
			t.Fatalf("lowerIsBetter(%q) != %v", c.unit, c.want)
		}
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  \trepro/internal/netsim\t0.004s",
		"pkg: repro/internal/netsim",
		"goos: linux",
		"--- BENCH: BenchmarkFoo",
		"BenchmarkBroken notanumber 12 ns/op",
		"BenchmarkNoNsPerOp 1 42 frames/s", // ns/op is mandatory
		// Non-finite measurements: strconv.ParseFloat accepts all of these
		// spellings, but a NaN would later sink the whole JSON record
		// (json.Encoder rejects it), so the parser must drop the line.
		"BenchmarkNaN 1 NaN ns/op",
		"BenchmarkNaNMetric 1 100 ns/op NaN frames/s",
		"BenchmarkInf 1 +Inf ns/op",
		"BenchmarkNegInf 1 100 ns/op -Inf frames/s",
		"BenchmarkNegIters -1 100 ns/op",
	} {
		if _, ok := parseBenchLine(line, ""); ok {
			t.Fatalf("accepted noise line %q", line)
		}
	}
}

func TestCompareBaselineDegenerateValues(t *testing.T) {
	// A zero-iteration baseline entry (e.g. a hand-edited or truncated
	// record) carries zero ns/op and zero rates; none of it is ratioable,
	// so a normal current run must pass without a manufactured regression.
	t.Run("zero-iteration baseline benchmark passes", func(t *testing.T) {
		base := []Benchmark{
			{Name: "BenchmarkStub", Package: "repro/internal/netsim", Iterations: 0,
				NsPerOp: 0, Metrics: map[string]float64{"frames/s": 0}},
		}
		cur := []Benchmark{
			{Name: "BenchmarkStub", Package: "repro/internal/netsim", Iterations: 1,
				NsPerOp: 5e9, Metrics: map[string]float64{"frames/s": 1}},
		}
		if bad := compareBaseline(base, cur, 5); len(bad) != 0 {
			t.Fatalf("zero baseline values manufactured a regression: %v", bad)
		}
	})

	// NaN on either side of a ratio makes every comparison vacuously
	// false; the guard must skip it explicitly rather than let NaN decide.
	t.Run("NaN values are skipped, finite metrics still checked", func(t *testing.T) {
		nan := math.NaN()
		base := []Benchmark{
			{Name: "BenchmarkMixed", Package: "repro", NsPerOp: nan,
				Metrics: map[string]float64{"ns/event": 1000, "events/s": nan}},
		}
		cur := []Benchmark{
			{Name: "BenchmarkMixed", Package: "repro", NsPerOp: 100,
				Metrics: map[string]float64{"ns/event": 60000, "events/s": 1}},
		}
		bad := compareBaseline(base, cur, 5)
		if len(bad) != 1 || !strings.Contains(bad[0], "ns/event") {
			t.Fatalf("want exactly the finite ns/event regression flagged, got %v", bad)
		}
	})

	t.Run("zero current value does not divide by zero", func(t *testing.T) {
		base := []Benchmark{{Name: "B", Package: "p", NsPerOp: 100,
			Metrics: map[string]float64{"events/s": 1000}}}
		cur := []Benchmark{{Name: "B", Package: "p", NsPerOp: 100,
			Metrics: map[string]float64{"events/s": 0}}}
		if bad := compareBaseline(base, cur, 5); len(bad) != 0 {
			t.Fatalf("zero current rate should be skipped, not flagged: %v", bad)
		}
	})
}

func TestCompareBaselineMixedUnitsOneBenchmark(t *testing.T) {
	// One benchmark carrying both a latency metric and a rate metric:
	// the two regress in opposite directions, and both must be caught in
	// the same pass (latency up 10x, rate down 10x).
	base := []Benchmark{
		{Name: "BenchmarkStep", Package: "repro/internal/netsim", NsPerOp: 1e6,
			Metrics: map[string]float64{"ns/event": 1000, "events/s": 1e6}},
	}
	cur := []Benchmark{
		{Name: "BenchmarkStep", Package: "repro/internal/netsim", NsPerOp: 1e6,
			Metrics: map[string]float64{"ns/event": 1e4, "events/s": 1e5}},
	}
	bad := compareBaseline(base, cur, 5)
	if len(bad) != 2 {
		t.Fatalf("want both the latency and the rate regression, got %v", bad)
	}
	joined := strings.Join(bad, "\n")
	for _, unit := range []string{"ns/event", "events/s"} {
		if !strings.Contains(joined, unit) {
			t.Errorf("missing %s regression in %v", unit, bad)
		}
	}

	// Improvements in both directions pass: latency down, rate up.
	better := []Benchmark{
		{Name: "BenchmarkStep", Package: "repro/internal/netsim", NsPerOp: 1e5,
			Metrics: map[string]float64{"ns/event": 100, "events/s": 1e7}},
	}
	if bad := compareBaseline(base, better, 5); len(bad) != 0 {
		t.Fatalf("improvement flagged as regression: %v", bad)
	}
}

func TestParseBenchStreamMixedUnits(t *testing.T) {
	// A realistic mixed stream: latency-only benchmarks and rate-carrying
	// benchmarks from different packages in one `go test -bench` output.
	lines := []string{
		"BenchmarkFig12SyncError-8 10 123456 ns/op",
		"BenchmarkSaturatedDomain-8 1 321815 ns/op 1245489 frames/s",
		"BenchmarkStepScaling/flows=10000-8 1 4e+09 ns/op 11000 ns/event 90000 events/s",
	}
	var got []Benchmark
	for _, line := range lines {
		b, ok := parseBenchLine(line, "repro/internal/netsim")
		if !ok {
			t.Fatalf("rejected valid line %q", line)
		}
		got = append(got, b)
	}
	if got[0].Metrics != nil {
		t.Errorf("latency-only benchmark grew metrics: %v", got[0].Metrics)
	}
	if got[1].Metrics["frames/s"] != 1245489 {
		t.Errorf("frames/s lost: %v", got[1].Metrics)
	}
	if got[2].NsPerOp != 4e9 || got[2].Metrics["ns/event"] != 11000 || got[2].Metrics["events/s"] != 90000 {
		t.Errorf("mixed-unit benchmark misparsed: %+v", got[2])
	}
}

// FuzzParseBenchLine feeds arbitrary lines to parseBenchLine: it must not
// panic, and an accepted line must carry a Benchmark name, a non-negative
// iteration count and ns/op, and only finite metrics.
func FuzzParseBenchLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		b, ok := parseBenchLine(line, "repro/internal/netsim")
		if !ok {
			return
		}
		if !strings.HasPrefix(b.Name, "Benchmark") {
			t.Fatalf("accepted %q with name %q", line, b.Name)
		}
		if b.Iterations < 0 || !(b.NsPerOp >= 0) || math.IsInf(b.NsPerOp, 0) {
			t.Fatalf("accepted %q with iterations %d, ns/op %v", line, b.Iterations, b.NsPerOp)
		}
		for _, unit := range slices.Sorted(maps.Keys(b.Metrics)) {
			if v := b.Metrics[unit]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted %q with %s = %v", line, unit, v)
			}
		}
	})
}

func TestFoldRunsTakesMedians(t *testing.T) {
	// go test -count repeats each benchmark's line; the record keeps one
	// entry per benchmark, in first-run order, with median values.
	const pkg = "repro/internal/netsim"
	runs := []Benchmark{
		{Name: "BenchmarkOdd", Package: pkg, Iterations: 1, NsPerOp: 30, Metrics: map[string]float64{"ns/event": 3}},
		{Name: "BenchmarkEven", Package: pkg, Iterations: 2, NsPerOp: 10},
		{Name: "BenchmarkOdd", Package: "repro/internal/other", Iterations: 1, NsPerOp: 7},
		{Name: "BenchmarkOdd", Package: pkg, Iterations: 1, NsPerOp: 10, Metrics: map[string]float64{"ns/event": 1, "allocs/op": 4}},
		{Name: "BenchmarkEven", Package: pkg, Iterations: 2, NsPerOp: 40, Metrics: map[string]float64{"events/s": 5}},
		{Name: "BenchmarkOdd", Package: pkg, Iterations: 1, NsPerOp: 20, Metrics: map[string]float64{"ns/event": 2}},
		{Name: "BenchmarkEven", Package: pkg, Iterations: 2, NsPerOp: 20, Metrics: map[string]float64{"events/s": 9}},
		{Name: "BenchmarkEven", Package: pkg, Iterations: 2, NsPerOp: 30},
	}
	got := foldRuns(runs)
	want := []Benchmark{
		// Odd count: the middle run. A metric only some runs report takes
		// the median of those runs.
		{Name: "BenchmarkOdd", Package: pkg, Iterations: 3, NsPerOp: 20, Runs: 3,
			Metrics: map[string]float64{"ns/event": 2, "allocs/op": 4}},
		// Even count: the mean of the two middle runs.
		{Name: "BenchmarkEven", Package: pkg, Iterations: 8, NsPerOp: 25, Runs: 4,
			Metrics: map[string]float64{"events/s": 7}},
		// The same name in another package is another benchmark.
		{Name: "BenchmarkOdd", Package: "repro/internal/other", Iterations: 1, NsPerOp: 7, Runs: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("folded into %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Package != w.Package || g.Iterations != w.Iterations || g.NsPerOp != w.NsPerOp ||
			g.Runs != w.Runs || !maps.Equal(g.Metrics, w.Metrics) {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestFoldRunsGatesOnMedianNotOutlier(t *testing.T) {
	// One slow run among five must not fail the baseline gate: the
	// median is what is compared.
	base := []Benchmark{{Name: "BenchmarkDraw", Package: "repro/internal/netsim", NsPerOp: 5000}}
	var runs []Benchmark
	for _, ns := range []float64{4500, 5200, 61000, 4900, 5100} {
		runs = append(runs, Benchmark{Name: "BenchmarkDraw", Package: "repro/internal/netsim", Iterations: 1, NsPerOp: ns})
	}
	if bad := compareBaseline(base, foldRuns(runs), 5); len(bad) != 0 {
		t.Fatalf("one outlier run failed the gate: %v", bad)
	}
	for i := range runs[:3] {
		runs[i].NsPerOp = 61000
	}
	if bad := compareBaseline(base, foldRuns(runs), 5); len(bad) != 1 {
		t.Fatalf("a regression in most runs passed the gate: %v", bad)
	}
}
