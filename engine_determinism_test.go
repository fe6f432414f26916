package sourcesync

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// The engine's reproducibility contract: a figure's output is byte-identical
// at every worker count, because each trial's RNG derives from (seed, point,
// trial) rather than from a shared stream.
//
// The waveform experiments (fig12-16) are too slow for `go test -short`, so
// each full-size comparison below is paired with a fingerprint variant: a
// handful of trials, reduced to an FNV hash, cheap enough for the short
// path. The hash carries no diagnostic detail — its only job is to catch a
// worker-count divergence before the full run would.

// fingerprint reduces any experiment result to a stable 64-bit hash of its
// Go-syntax representation.
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", v)
	return h.Sum64()
}

func TestFig12DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	o := Fig12Options{SNRsdB: []float64{6, 12, 25}, Trials: 10, Reps: 30}
	render := func(workers int) string {
		return fmt.Sprintf("%#v", RunFig12(engine.Config{Seed: 1, Workers: workers}, o))
	}
	serial := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := render(workers); got != serial {
			t.Fatalf("workers=%d output differs from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

func TestFig13DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	o := Fig13Options{CPsNs: []float64{0, 156, 469}, FramesPerCP: 3}
	render := func(workers int) string {
		return fmt.Sprintf("%#v", RunFig13(engine.Config{Seed: 2, Workers: workers}, o))
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatalf("workers=4 output differs from serial:\n%s\nvs\n%s", got, serial)
	}
}

func TestFig14Fig15Fig16DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	o14 := Fig14Options{Draws: 40, Taps: 30}
	o15 := Fig15Options{Placements: 8, Frames: 2}
	render := func(workers int) string {
		a, b := engine.Config{Seed: 3, Workers: workers}, engine.Config{Seed: 4, Workers: workers}
		return fmt.Sprintf("%#v|%#v|%#v", RunFig14(a, o14), RunFig15(b, o15), RunFig16(b, o15))
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatal("fig14-16 parallel output differs from serial")
	}
}

func TestFig13FingerprintDeterministicShort(t *testing.T) {
	o := Fig13Options{CPsNs: []float64{0, 469}, FramesPerCP: 1}
	render := func(workers int) uint64 {
		return fingerprint(RunFig13(engine.Config{Seed: 2, Workers: workers}, o))
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatalf("fig13 fingerprint differs: workers=4 %x vs serial %x", got, serial)
	}
}

func TestFig14Fig15Fig16FingerprintDeterministicShort(t *testing.T) {
	o14 := Fig14Options{Draws: 6, Taps: 10}
	o15 := Fig15Options{Placements: 2, Frames: 1}
	render := func(workers int) uint64 {
		a, b := engine.Config{Seed: 3, Workers: workers}, engine.Config{Seed: 4, Workers: workers}
		return fingerprint([]any{RunFig14(a, o14), RunFig15(b, o15), RunFig16(b, o15)})
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatalf("fig14-16 fingerprint differs: workers=4 %x vs serial %x", got, serial)
	}
}

// backloggedCell is a two-AP backlogged cell spec — the shape of the cell
// experiment, which RunScenario runs through the cell-family driver.
func backloggedCell(placements, clients, packets int, windowSec float64) *scenario.Spec {
	return &scenario.Spec{
		Version: 1,
		Name:    "cell",
		Topology: scenario.Topology{
			Family:     scenario.FamilyCell,
			Placements: placements,
			APs:        2,
			Clients:    clients,
		},
		Traffic: scenario.Traffic{
			Model:        scenario.ModelBacklogged,
			Packets:      packets,
			PayloadBytes: 1460,
			WindowSec:    windowSec,
		},
	}
}

// runCellSpec runs a backlogged spec and renders its point.
func runCellSpec(t *testing.T, sp *scenario.Spec, seed int64, workers int) string {
	t.Helper()
	points, err := RunScenario(engine.Config{Seed: seed, Workers: workers}, sp)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v", points)
}

func TestCellCrossTrafficDeterministicAcrossWorkerCounts(t *testing.T) {
	sc := backloggedCell(4, 8, 40, 0)
	ox := MeshOptions{Topologies: 3, Packets: 40, CrossFlows: 2,
		CrossPackets: 50, RateMbps: 12, Probes: 30}
	wantC := runCellSpec(t, sc, 9, 1)
	wantX := fmt.Sprintf("%#v", RunCrossTraffic(engine.Config{Seed: 10, Workers: 1}, ox))
	if got := runCellSpec(t, sc, 9, 4); got != wantC {
		t.Fatalf("cell parallel output differs from serial")
	}
	if got := fmt.Sprintf("%#v", RunCrossTraffic(engine.Config{Seed: 10, Workers: 4}, ox)); got != wantX {
		t.Fatalf("crosstraffic parallel output differs from serial")
	}
}

func TestSpatialCrossTrafficDeterministicAcrossWorkerCounts(t *testing.T) {
	// The spatial-mesh variant: stretched floor, finite carrier sense,
	// SampleRate-adapted cross flows, rate-aware interference — the full
	// new-model pipeline must still reduce byte-identically at any worker
	// count.
	o := SpatialCrossTrafficOptions()
	o.Topologies, o.Packets, o.CrossPackets, o.Probes = 3, 40, 50, 30
	want := fmt.Sprintf("%#v", RunCrossTraffic(engine.Config{Seed: 12, Workers: 1}, o))
	if got := fmt.Sprintf("%#v", RunCrossTraffic(engine.Config{Seed: 12, Workers: 4}, o)); got != want {
		t.Fatalf("crosstraffic-spatial parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
}

func TestWindowModeAndCSRangeSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// Fixed-time-window saturation (RunUntil) plus the carrier-sense-range
	// sweep, both under the default rate-aware model.
	o := CellSweepOptions{Placements: 3, Cells: 2, APsPerCell: 2,
		ClientsPer: []int{2}, Packets: 20, CSRangeM: 30, WindowSec: 0.05}
	sc := backloggedCell(4, 4, 20, 0.05)
	want := fmt.Sprintf("%#v", RunCSRangeSweep(engine.Config{Seed: 13, Workers: 1}, o, []float64{20, 40}, 2))
	wantC := runCellSpec(t, sc, 14, 1)
	if got := fmt.Sprintf("%#v", RunCSRangeSweep(engine.Config{Seed: 13, Workers: 4}, o, []float64{20, 40}, 2)); got != want {
		t.Fatalf("CS-range sweep parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
	if got := runCellSpec(t, sc, 14, 4); got != wantC {
		t.Fatalf("window-mode cell parallel output differs from serial:\n%s\nvs\n%s", got, wantC)
	}
}

func TestCellSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	o := CellSweepOptions{Placements: 3, Cells: 2, APsPerCell: 2,
		ClientsPer: []int{1, 4}, Packets: 20, CSRangeM: 30}
	serial, par := engine.Config{Seed: 11, Workers: 1}, engine.Config{Seed: 11, Workers: 4}
	want := fmt.Sprintf("%#v", RunCellSweep(serial, o))
	wantC := fmt.Sprintf("%#v", RunCellCountSweep(serial, o, []int{1, 3}, 2))
	if got := fmt.Sprintf("%#v", RunCellSweep(par, o)); got != want {
		t.Fatalf("cellsweep parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
	if got := fmt.Sprintf("%#v", RunCellCountSweep(par, o, []int{1, 3}, 2)); got != wantC {
		t.Fatalf("cell-count sweep parallel output differs from serial:\n%s\nvs\n%s", got, wantC)
	}
}

func TestFig17Fig18DeterministicAcrossWorkerCounts(t *testing.T) {
	o17 := Fig17Options{Placements: 8, Packets: 100}
	o18 := MeshOptions{Topologies: 5, Packets: 60, RateMbps: 12, Probes: 30}
	want17 := fmt.Sprintf("%#v", RunFig17(engine.Config{Seed: 5, Workers: 1}, o17))
	want18 := fmt.Sprintf("%#v", RunFig18(engine.Config{Seed: 6, Workers: 1}, o18))
	if got := fmt.Sprintf("%#v", RunFig17(engine.Config{Seed: 5, Workers: 4}, o17)); got != want17 {
		t.Fatalf("Fig17 parallel output differs from serial")
	}
	if got := fmt.Sprintf("%#v", RunFig18(engine.Config{Seed: 6, Workers: 4}, o18)); got != want18 {
		t.Fatalf("Fig18 parallel output differs from serial")
	}
}

func TestMetroDeterministicAcrossWorkerCounts(t *testing.T) {
	// A quick-size city: 3x3 cells, two density points, bounded
	// interference scans — the full indexed-scheduler pipeline (spatial
	// hash, event heap, per-flow interference pruning) must reduce
	// byte-identically at any worker count.
	o := MetroOptions{Placements: 2, CellsX: 3, CellsY: 3, APsPerCell: 2,
		ClientsPer: []int{2, 4}, Packets: 10,
		CSRangeM: 45, InterferenceRangeM: 150}
	want := fmt.Sprintf("%#v", RunMetro(engine.Config{Seed: 17, Workers: 1}, o))
	if got := fmt.Sprintf("%#v", RunMetro(engine.Config{Seed: 17, Workers: 4}, o)); got != want {
		t.Fatalf("metro parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
}
