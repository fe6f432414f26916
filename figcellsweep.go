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

// ------------------------------------------------------------- cellsweep

// CellSweepOptions configures the multi-cell saturation sweep: C spatially
// separated WLAN cells — adjacent cells sit beyond carrier-sense range, so
// their downlinks reuse the medium concurrently — each holding M APs and N
// backlogged clients, with N swept to trace saturation throughput versus
// offered population for joint (SourceSync) and best-single-AP service.
type CellSweepOptions struct {
	Placements int   // random AP/client placements per sweep point
	Cells      int   // spatially separated cells (>= 1)
	APsPerCell int   // M APs serving each cell
	ClientsPer []int // sweep: clients per cell, one curve point each
	Packets    int   // downlink packets per client
	Payload    int
	CSRangeM   float64 // carrier-sense range between transmitters (meters)
	// WindowSec switches every run to fixed-time-window saturation mode:
	// unbounded backlogs drained for this many virtual seconds (Packets
	// ignored), so one starved boundary client no longer gates a run's
	// elapsed time. 0 keeps the drain-the-backlog mode.
	WindowSec float64
}

// DefaultCellSweepOptions returns the parameters used by ssbench: two
// cells, two APs each, clients swept 1..8 per cell, 30 m carrier sense.
func DefaultCellSweepOptions() CellSweepOptions {
	return CellSweepOptions{
		Placements: 10, Cells: 2, APsPerCell: 2,
		ClientsPer: []int{1, 2, 4, 6, 8}, Packets: 60, Payload: 1460,
		CSRangeM: 30,
	}
}

// runSweep runs one cellsweep table: at(pt) gives sweep point pt's cell
// count, carrier-sense range and clients per cell. Each point lays out
// Placements layouts of that many cells in a row, cellPitch apart along a
// floor widened to hold them, with APs and clients placed by rejection
// over the whole floor. One rate-aware interference model (read-only
// after construction, so every worker shares it) corrupts or degrades
// each interfered downlink at its own rate's decode threshold.
func runSweep(ec engine.Config, o CellSweepOptions, points int, at func(pt int) (cells int, cs float64, clientsPer int)) []PointStats {
	cfg := Profile80211()
	base := lasthop.Cell{
		Mac:              mac.Default(cfg),
		PayloadBytes:     o.Payload,
		PacketsPerClient: o.Packets,
		Model:            netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload),
		WindowSec:        o.WindowSec,
	}
	return reducePoints(bothSchemes, runCells(ec, points, o.Placements, bothSchemes, func(pt int, rng *rand.Rand) func() lasthop.Cell {
		cells, cs, clientsPer := at(pt)
		pitch := cellPitch(cs)
		// Widen the floor to hold every cell; height (and the 8-25 m client
		// annulus) stay as in the single-cell experiment.
		env := testbed.Mesh(cfg)
		env.Width = float64(cells) * pitch
		centers := make([]testbed.Point, cells)
		for c := range centers {
			centers[c] = testbed.Point{X: pitch/2 + float64(c)*pitch, Y: env.Height / 2}
		}
		floor := base
		floor.CSRangeM = cs
		floor.Env = env
		cell := placeCells(rng, floor, centers, o.APsPerCell, clientsPer,
			func(rng *rand.Rand, _ testbed.Point, _ float64, accept func(testbed.Point) bool) testbed.Point {
				return env.RandomPointWhere(rng, 100000, accept)
			})
		return func() lasthop.Cell { return cell }
	}))
}

// RunCellSweep traces saturation throughput versus clients per cell across
// spatially separated cells: every sweep point re-places APs and clients
// Placements times, drains each client's backlog once with best-single-AP
// service and once with SourceSync joint transmissions on one shared
// spatial-reuse simulator, and reduces medians in placement order. It
// returns one PointStats per ClientsPer value.
func RunCellSweep(ec engine.Config, o CellSweepOptions) []PointStats {
	return runSweep(ec, o, len(o.ClientsPer), func(pt int) (int, float64, int) {
		return o.Cells, o.CSRangeM, o.ClientsPer[pt]
	})
}

// RunCellCountSweep traces aggregate capacity versus the number of
// spatially separated cells at a fixed client density — the AirSync-style
// capacity-vs-area curve the event-driven per-neighborhood clock makes
// honest (a global round clock would idle short cells against long ones).
// Each point widens the floor to hold its cells and re-places APs and
// clients Placements times; MeanUtilization approaches the cell count
// under saturation. It returns one PointStats per cell count.
func RunCellCountSweep(ec engine.Config, o CellSweepOptions, cellCounts []int, clientsPer int) []PointStats {
	return runSweep(ec, o, len(cellCounts), func(pt int) (int, float64, int) {
		return cellCounts[pt], o.CSRangeM, clientsPer
	})
}

// RunCSRangeSweep traces aggregate capacity versus carrier-sense range at
// a fixed cell count and client density — the other axis of the
// capacity-vs-area picture. A shorter range packs the cells tighter
// (cellPitch scales with the range), so more neighborhoods reuse the
// medium concurrently but more of their frames collide at shared
// receivers as hidden terminals; a longer range spaces the cells out and
// serializes them. The interference model prices that tradeoff: the
// HiddenRate and per-rate corruption columns quantify what denser reuse
// costs. It returns one PointStats per carrier-sense range.
func RunCSRangeSweep(ec engine.Config, o CellSweepOptions, csRanges []float64, clientsPer int) []PointStats {
	return runSweep(ec, o, len(csRanges), func(pt int) (int, float64, int) {
		return o.Cells, csRanges[pt], clientsPer
	})
}
