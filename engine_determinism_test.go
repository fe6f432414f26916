package sourcesync

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
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
	base := Fig12Options{Seed: 1, SNRsdB: []float64{6, 12, 25}, Trials: 10, Reps: 30}
	render := func(workers int) string {
		o := base
		o.Workers = workers
		return fmt.Sprintf("%#v", RunFig12(o))
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
	base := Fig13Options{Seed: 2, CPsNs: []float64{0, 156, 469}, FramesPerCP: 3, SNRdB: 25}
	render := func(workers int) string {
		o := base
		o.Workers = workers
		return fmt.Sprintf("%#v", RunFig13(o))
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
	o14 := Fig14Options{Seed: 3, Draws: 40, Taps: 30}
	o15 := Fig15Options{Seed: 4, Placements: 8, Frames: 2}
	render := func(workers int) string {
		a, b := o14, o15
		a.Workers, b.Workers = workers, workers
		return fmt.Sprintf("%#v|%#v|%#v", RunFig14(a), RunFig15(b), RunFig16(b))
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatal("fig14-16 parallel output differs from serial")
	}
}

func TestFig13FingerprintDeterministicShort(t *testing.T) {
	base := Fig13Options{Seed: 2, CPsNs: []float64{0, 469}, FramesPerCP: 1, SNRdB: 25}
	render := func(workers int) uint64 {
		o := base
		o.Workers = workers
		return fingerprint(RunFig13(o))
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatalf("fig13 fingerprint differs: workers=4 %x vs serial %x", got, serial)
	}
}

func TestFig14Fig15Fig16FingerprintDeterministicShort(t *testing.T) {
	o14 := Fig14Options{Seed: 3, Draws: 6, Taps: 10}
	o15 := Fig15Options{Seed: 4, Placements: 2, Frames: 1}
	render := func(workers int) uint64 {
		a, b := o14, o15
		a.Workers, b.Workers = workers, workers
		return fingerprint([]any{RunFig14(a), RunFig15(b), RunFig16(b)})
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatalf("fig14-16 fingerprint differs: workers=4 %x vs serial %x", got, serial)
	}
}

func TestCellCrossTrafficDeterministicAcrossWorkerCounts(t *testing.T) {
	oc := CellOptions{Seed: 9, Placements: 4, Clients: 8, APs: 2, Packets: 40, Payload: 1460}
	ox := CrossTrafficOptions{Seed: 10, Topologies: 3, Packets: 40, CrossFlows: 2,
		CrossPackets: 50, Payload: 1000, RateMbps: 12, Probes: 30}
	oc.Workers, ox.Workers = 1, 1
	wantC := fmt.Sprintf("%#v", RunCell(oc))
	wantX := fmt.Sprintf("%#v", RunCrossTraffic(ox))
	oc.Workers, ox.Workers = 4, 4
	if got := fmt.Sprintf("%#v", RunCell(oc)); got != wantC {
		t.Fatalf("cell parallel output differs from serial")
	}
	if got := fmt.Sprintf("%#v", RunCrossTraffic(ox)); got != wantX {
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
	o.Workers = 1
	want := fmt.Sprintf("%#v", RunCrossTraffic(o))
	o.Workers = 4
	if got := fmt.Sprintf("%#v", RunCrossTraffic(o)); got != want {
		t.Fatalf("crosstraffic-spatial parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
}

func TestWindowModeAndCSRangeSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// Fixed-time-window saturation (RunUntil) plus the carrier-sense-range
	// sweep, both under the default rate-aware model.
	o := CellSweepOptions{Seed: 13, Placements: 3, Cells: 2, APsPerCell: 2,
		ClientsPer: []int{2}, Packets: 20, Payload: 1460, CSRangeM: 30, WindowSec: 0.05}
	oc := CellOptions{Seed: 14, Placements: 4, Clients: 4, APs: 2, Packets: 20,
		Payload: 1460, WindowSec: 0.05}
	o.Workers, oc.Workers = 1, 1
	want := fmt.Sprintf("%#v", RunCSRangeSweep(o, []float64{20, 40}, 2))
	wantC := fmt.Sprintf("%#v", RunCell(oc))
	o.Workers, oc.Workers = 4, 4
	if got := fmt.Sprintf("%#v", RunCSRangeSweep(o, []float64{20, 40}, 2)); got != want {
		t.Fatalf("CS-range sweep parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
	if got := fmt.Sprintf("%#v", RunCell(oc)); got != wantC {
		t.Fatalf("window-mode cell parallel output differs from serial:\n%s\nvs\n%s", got, wantC)
	}
}

func TestCellSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	o := CellSweepOptions{Seed: 11, Placements: 3, Cells: 2, APsPerCell: 2,
		ClientsPer: []int{1, 4}, Packets: 20, Payload: 1460, CSRangeM: 30}
	o.Workers = 1
	want := fmt.Sprintf("%#v", RunCellSweep(o))
	wantC := fmt.Sprintf("%#v", RunCellCountSweep(o, []int{1, 3}, 2))
	o.Workers = 4
	if got := fmt.Sprintf("%#v", RunCellSweep(o)); got != want {
		t.Fatalf("cellsweep parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
	if got := fmt.Sprintf("%#v", RunCellCountSweep(o, []int{1, 3}, 2)); got != wantC {
		t.Fatalf("cell-count sweep parallel output differs from serial:\n%s\nvs\n%s", got, wantC)
	}
}

func TestFig17Fig18DeterministicAcrossWorkerCounts(t *testing.T) {
	o17 := Fig17Options{Seed: 5, Placements: 8, Packets: 100, Payload: 1460}
	o18 := Fig18Options{Seed: 6, Topologies: 5, Packets: 60, Payload: 1000, RateMbps: 12, Probes: 30}
	o17.Workers, o18.Workers = 1, 1
	want17 := fmt.Sprintf("%#v", RunFig17(o17))
	want18 := fmt.Sprintf("%#v", RunFig18(o18))
	o17.Workers, o18.Workers = 0, 0
	if got := fmt.Sprintf("%#v", RunFig17(o17)); got != want17 {
		t.Fatalf("Fig17 parallel output differs from serial")
	}
	if got := fmt.Sprintf("%#v", RunFig18(o18)); got != want18 {
		t.Fatalf("Fig18 parallel output differs from serial")
	}
}

func TestMetroDeterministicAcrossWorkerCounts(t *testing.T) {
	// A quick-size city: 3x3 cells, two density points, bounded
	// interference scans — the full indexed-scheduler pipeline (spatial
	// hash, event heap, per-flow interference pruning) must reduce
	// byte-identically at any worker count.
	o := MetroOptions{Seed: 17, Placements: 2, CellsX: 3, CellsY: 3, APsPerCell: 2,
		ClientsPer: []int{2, 4}, Packets: 10, Payload: 1460,
		CSRangeM: 45, InterferenceRangeM: 150}
	o.Workers = 1
	want := fmt.Sprintf("%#v", RunMetro(o))
	o.Workers = 4
	if got := fmt.Sprintf("%#v", RunMetro(o)); got != want {
		t.Fatalf("metro parallel output differs from serial:\n%s\nvs\n%s", got, want)
	}
}
