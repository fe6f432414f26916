package experiments

import (
	"slices"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
)

// TestMaxFramesPerSecBoundsTheExchange holds the saturation bound to the
// MAC's timing: the shortest exchange a cell completes (DIFS, a one-byte
// frame at the fastest standard rate, SIFS, the ACK) must last at least
// 1/maxFramesPerSec.
func TestMaxFramesPerSecBoundsTheExchange(t *testing.T) {
	m := mac.Default(modem.Profile80211())
	rates := modem.StandardRates()
	exchange := m.DIFS() + m.FrameDuration(rates[len(rates)-1], 1) + m.SIFS + m.AckDuration()
	if perSec := 1 / exchange; perSec > maxFramesPerSec {
		t.Fatalf("a %.1f µs exchange allows %.0f frames/s, above maxFramesPerSec %d", exchange*1e6, perSec, maxFramesPerSec)
	}
}

// TestEstimateWorkAtDefaults pins the estimate of every experiment a
// request can scale, at full size and under -quick, with default options:
// the figures a service's work cap is chosen against. Experiments no
// request field reaches estimate zero.
func TestEstimateWorkAtDefaults(t *testing.T) {
	cases := []struct {
		name        string
		full, quick float64
	}{
		// 20 placements × 2 schemes × 8 clients × 120 packets.
		{"cell", 38400, 2400},
		// 12 placements × 2 schemes × 8 clients × (40+80+160+320) pps × 1 s.
		{"arrivals", 115200, 28800},
		// 12 placements × 2 schemes × 2 cells × 4 clients × 150 pps × 2 s.
		{"mobility", 57600, 14400},
		// 10 placements × 2 schemes × 60 packets × (2 cells × 21 clients
		// + 6 cells × 4 + 3 ranges × 2 cells × 4).
		{"cellsweep", 108000, 5400},
		// 3 placements × 2 schemes × 100 cells × (4+8+12) clients × 20 packets.
		{"metro", 288000, 1920},
		{"fig12", 0, 0},
		{"fig17", 0, 0},
		{"crosstraffic", 0, 0},
		{"all", 607200, 52920},
	}
	for _, c := range cases {
		for _, quick := range []bool{false, true} {
			p := DefaultParams()
			p.Quick = quick
			want := c.full
			if quick {
				want = c.quick
			}
			if got := EstimateWork(c.name, p); got.Packets != want {
				t.Errorf("%s (quick %v): %g packets, want %g", c.name, quick, got.Packets, want)
			}
		}
	}
}

// TestEstimateWorkNamesTheScalingField checks which request field an
// oversized run names, and that a saturation window replaces the
// backlog's packets.
func TestEstimateWorkNamesTheScalingField(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"cellsweep", Options{Cells: []int{1000000}}, "options.cells"},
		{"cellsweep", Options{CSRanges: slices.Repeat([]float64{30}, 100000)}, "options.cs_ranges"},
		{"cellsweep", Options{WindowSec: 100}, "options.window_sec"},
		{"metro", Options{WindowSec: 100}, "options.window_sec"},
		{"cell", Options{WindowSec: 100}, "options.window_sec"},
		{"all", Options{Cells: []int{1000000}}, "options.cells"},
	}
	for _, c := range cases {
		p := DefaultParams()
		p.Options = c.opts
		if got := EstimateWork(c.name, p); got.Field != c.field {
			t.Errorf("%s with %+v: field %q, want %q", c.name, c.opts, got.Field, c.field)
		}
	}
	// A one-second window on the cell builtin is 20 placements × 2
	// schemes × one cell's 10,000 frames.
	p := DefaultParams()
	p.Options.WindowSec = 1
	if got := EstimateWork("cell", p).Packets; got != 400000 {
		t.Errorf("cell with a 1 s window: %g packets, want 400000", got)
	}
}
