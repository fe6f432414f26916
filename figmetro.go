package sourcesync

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// ----------------------------------------------------------------- metro

// MetroOptions configures the city-scale deployment experiment: a
// CellsX x CellsY grid of WLAN cells — a metro neighborhood rather than
// one office floor — with the per-cell client density swept, every
// downlink priced by the rate-aware interference model, and the
// interference scan bounded by InterferenceRangeM so the spatially indexed
// scheduler settles each frame against nearby transmitters only. The
// experiment asks SourceSync's density question at the scale the paper
// gestures at: does joint service keep its edge when hundreds of cells and
// thousands of clients share the air?
type MetroOptions struct {
	Placements int // random city layouts per density point
	CellsX     int // cells per city row
	CellsY     int // cells per city column (CellsX*CellsY cells total)
	APsPerCell int
	ClientsPer []int // density sweep: clients per cell, one map point each
	Packets    int   // downlink packets per client
	Payload    int
	CSRangeM   float64 // carrier-sense range between transmitters (meters)
	// InterferenceRangeM bounds each settled frame's interference scan to
	// transmitters within this radius of the receiver; it should
	// comfortably exceed CSRangeM plus the longest serving link so nothing
	// above the noise floor is missed.
	InterferenceRangeM float64
	// WindowSec switches every run to fixed-time-window saturation mode
	// (unbounded backlogs drained for this many virtual seconds). 0 drains
	// the fixed per-client backlogs.
	WindowSec float64
}

// DefaultMetroOptions returns the parameters used by ssbench: a 10x10-cell
// city (100 cells, two APs each) with per-cell density swept 4..12 clients
// — 400 to 1200 concurrent downlink flows — on a 60 m cell pitch with
// 45 m carrier sense and a 150 m interference horizon.
func DefaultMetroOptions() MetroOptions {
	return MetroOptions{
		Placements: 3, CellsX: 10, CellsY: 10, APsPerCell: 2,
		ClientsPer: []int{4, 8, 12}, Packets: 20, Payload: 1460,
		CSRangeM: 45, InterferenceRangeM: 150,
	}
}

// metroPoint draws a point uniformly in the square of half-width h around
// center, rejected until accept holds (the last draw is kept if 100000
// draws all fail). Sampling is local to the cell — rejection over the
// whole city floor would burn thousands of draws per client — so layout
// cost stays O(clients), not O(clients * floor area).
func metroPoint(rng *rand.Rand, center testbed.Point, h float64, accept func(testbed.Point) bool) testbed.Point {
	var p testbed.Point
	for i := 0; i < 100000; i++ {
		p = testbed.Point{
			X: center.X + (rng.Float64()*2-1)*h,
			Y: center.Y + (rng.Float64()*2-1)*h,
		}
		if accept(p) {
			return p
		}
	}
	return p
}

// RunMetro traces the joint-vs-best-single-AP capacity map against per-cell
// client density across the city grid: every density point re-places the
// whole city Placements times — cells tiled row-major at the cellPitch,
// each placed with metroPoint — drains each layout once under each serving
// mode, and reduces medians in placement order. The interference model is
// rate-aware throughout — the metro question is precisely how interference
// scales with density. It returns one PointStats per ClientsPer value.
func RunMetro(ec engine.Config, o MetroOptions) []PointStats {
	cfg := Profile80211()
	pitch := cellPitch(o.CSRangeM)
	env := testbed.Mesh(cfg)
	env.Width = float64(o.CellsX) * pitch
	env.Height = float64(o.CellsY) * pitch
	centers := make([]testbed.Point, 0, o.CellsX*o.CellsY)
	for cy := 0; cy < o.CellsY; cy++ {
		for cx := 0; cx < o.CellsX; cx++ {
			centers = append(centers, testbed.Point{
				X: pitch/2 + float64(cx)*pitch,
				Y: pitch/2 + float64(cy)*pitch,
			})
		}
	}
	base := lasthop.Cell{
		Mac:                mac.Default(cfg),
		PayloadBytes:       o.Payload,
		PacketsPerClient:   o.Packets,
		CSRangeM:           o.CSRangeM,
		Model:              netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload),
		Env:                env,
		InterferenceRangeM: o.InterferenceRangeM,
		WindowSec:          o.WindowSec,
	}
	return reducePoints(bothSchemes, runCells(ec, len(o.ClientsPer), o.Placements, bothSchemes, func(pt int, rng *rand.Rand) func() lasthop.Cell {
		cell := placeCells(rng, base, centers, o.APsPerCell, o.ClientsPer[pt], metroPoint)
		return func() lasthop.Cell { return cell }
	}))
}
