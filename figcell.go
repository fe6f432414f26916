package sourcesync

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/lasthop"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// ---------------------------------------------------------- trial runners
//
// Every packet-level experiment runs its trials through one grid runner,
// runTrials, and reduces them with one reducer, reducePoint, into the
// PointStats row every packet-level table prints. Every lasthop.Cell
// experiment — fig17, cell, cellsweep, metro, arrivals and mobility — runs
// on runCells: a trial draws its layout, then runs each serving scheme on
// a fresh cell built from that layout, each on its own child stream. The
// §8.4 mesh experiments — fig18 and both crosstraffic variants — run on
// runMesh (fig1718.go). reducePoints folds a sweep.

// schemeRun is what reducePoint reads of one scheme's run in one trial.
type schemeRun struct {
	bps float64 // delivered bits over the run's virtual time
	netsim.Stats
	acquisitions    int // transmit groups that acquired the medium
	collisionRounds int // transmit groups that collided
	utilization     float64
	rateCorruption  []netsim.RateCorruption
	handoffs        int // serving-cell changes; 0 without mobility
	clients         int // clients served, the handoff rate's divisor
}

// cellRun keeps what reducePoint reads of a cell run. The per-client
// counters stay behind, so a finished trial holds no per-client state
// while the rest of its grid runs.
func cellRun(r lasthop.CellResult) schemeRun {
	return schemeRun{
		bps:             r.AggregateBps,
		Stats:           r.Stats,
		acquisitions:    r.Acquisitions,
		collisionRounds: r.CollisionRounds,
		utilization:     r.Utilization,
		rateCorruption:  r.RateCorruption,
		handoffs:        r.Handoffs,
		clients:         len(r.PerClient),
	}
}

// SchemeStats is one scheme's outcome over a point's placements.
type SchemeStats struct {
	Scheme string
	// Bps is each placement's throughput (delivered bits over the run's
	// virtual time), in placement order.
	Bps []float64
	// AggMbps is the scheme's throughput CDF: Bps in Mbps, sorted.
	AggMbps    []float64
	MedianMbps float64 // median of AggMbps
	// Stats adds up the scheme's flow counters over the placements.
	netsim.Stats
	// CollisionRate is the fraction of medium acquisitions whose transmit
	// groups collided, averaged over the runs.
	CollisionRate float64
	// HiddenRate is hidden-terminal corruptions per medium acquisition,
	// averaged over the runs: concurrent out-of-range downlinks corrupting
	// each other at the receivers.
	HiddenRate float64
	// CaptureRate is captures per acquisition averaged over the runs:
	// colliding downlinks the interference model let survive.
	CaptureRate float64
	// MeanUtilization is busy time over elapsed time, averaged over the
	// runs; values above 1 mean several cells carried frames concurrently
	// (spatial reuse at work). With the event-driven per-neighborhood
	// clock it approaches the cell count under saturation, minus what
	// hidden terminals and DCF overhead take.
	MeanUtilization float64
	// RateCorruption aggregates the interference model's per-rate outcomes
	// over the runs (index = SampleRate rate index): interfered /
	// corrupted / degraded counts and summed decode margins.
	RateCorruption []netsim.RateCorruption
	// HandoffsPerClient is the mean number of serving-cell changes each
	// client made over the window; 0 without mobility.
	HandoffsPerClient float64
}

// PointStats is one row of every packet-level table — a swept value of the
// saturation experiments (clients per cell, cell count, carrier-sense
// range, metro density), one offered load of an arrival-driven scenario,
// a backlogged scenario's one point, or a fig17, fig18 or crosstraffic
// run: each scheme's outcome over the placements.
type PointStats struct {
	RatePps float64 // per-client offered load; 0 for a backlogged point
	// Schemes holds one entry per scheme, in scheme-list order.
	Schemes []SchemeStats
}

// MedianGain is the median over placements of scheme num's throughput over
// scheme den's (indexes into Schemes). It pairs the two runs of each
// placement and skips the placements where den delivered nothing, which
// give no ratio; NaN when none is left.
func (p PointStats) MedianGain(num, den int) float64 {
	var ratios []float64
	for pl, d := range p.Schemes[den].Bps {
		if d > 0 {
			ratios = append(ratios, p.Schemes[num].Bps[pl]/d)
		}
	}
	return dsp.Median(ratios)
}

// bothSchemes is the saturation experiments' scheme list: best single AP,
// then joint, the order their child streams are drawn in.
var bothSchemes = []string{scenario.SchemeSingle, scenario.SchemeJoint}

// runTrials runs points x placements trials on one engine grid. Each trial
// returns its scheme runs in scheme order. Results come back as
// trials[point][placement][scheme], holding only the trials that ran: a
// canceled run drops the ones it never started (its output is discarded
// anyway).
func runTrials(ec engine.Config, points, placements int, trial func(pt int, rng *rand.Rand) []schemeRun) [][][]schemeRun {
	trials := engine.Grid(ec, points, placements, func(pt, _ int, rng *rand.Rand) []schemeRun {
		return trial(pt, rng)
	})
	for pt := range trials {
		trials[pt] = slices.DeleteFunc(trials[pt], func(tr []schemeRun) bool { return tr == nil })
	}
	return trials
}

// runCells runs the cell family's trials on runTrials. Each trial draws
// its layout with place, which returns a builder of fresh cells over that
// layout, then runs each scheme in schemes on a fresh cell (single:
// best-single-AP service; every-ap: fig17's try-every-AP baseline; joint:
// SourceSync joint service), each on a child RNG drawn from the trial
// stream in scheme order.
func runCells(ec engine.Config, points, placements int, schemes []string,
	place func(pt int, rng *rand.Rand) func() lasthop.Cell) [][][]schemeRun {
	return runTrials(ec, points, placements, func(pt int, rng *rand.Rand) []schemeRun {
		fresh := place(pt, rng)
		out := make([]schemeRun, len(schemes))
		for si, scheme := range schemes {
			var r lasthop.CellResult
			switch scheme {
			case scenario.SchemeSingle:
				r = fresh().RunBestSingleAP(engine.ChildRNG(rng))
			case schemeEveryAP:
				r = bestOfAPs(fresh(), engine.ChildRNG(rng))
			default:
				r = fresh().RunJoint(engine.ChildRNG(rng))
			}
			out[si] = cellRun(r)
		}
		return out
	})
}

// reducePoint folds one point's trials, run over schemes, into its
// PointStats row. Every sum runs in placement order, so float
// accumulation is deterministic: each scheme's per-acquisition rates and
// utilization are summed and then divided once, and its per-rate
// corruption is merged run by run.
func reducePoint(schemes []string, trials [][]schemeRun) PointStats {
	var pt PointStats
	for si, scheme := range schemes {
		st := SchemeStats{Scheme: scheme, Bps: make([]float64, len(trials))}
		handoffs, clients := 0, 0
		for pl, tr := range trials {
			r := tr[si]
			st.Bps[pl] = r.bps
			st.Add(r.Stats)
			if r.acquisitions > 0 {
				st.CollisionRate += float64(r.collisionRounds) / float64(r.acquisitions)
				st.HiddenRate += float64(r.HiddenLosses) / float64(r.acquisitions)
				st.CaptureRate += float64(r.Captures) / float64(r.acquisitions)
			}
			st.MeanUtilization += r.utilization
			st.RateCorruption = netsim.MergeRateCorruption(st.RateCorruption, r.rateCorruption)
			handoffs += r.handoffs
			clients += r.clients
		}
		if n := len(trials); n > 0 {
			st.CollisionRate /= float64(n)
			st.HiddenRate /= float64(n)
			st.CaptureRate /= float64(n)
			st.MeanUtilization /= float64(n)
		}
		if clients > 0 {
			st.HandoffsPerClient = float64(handoffs) / float64(clients)
		}
		st.AggMbps = make([]float64, len(trials))
		for pl, bps := range st.Bps {
			st.AggMbps[pl] = bps / 1e6
		}
		sort.Float64s(st.AggMbps)
		st.MedianMbps = dsp.Median(st.AggMbps)
		pt.Schemes = append(pt.Schemes, st)
	}
	return pt
}

// reducePoints folds every point of a sweep, in swept-value order.
func reducePoints(schemes []string, trials [][][]schemeRun) []PointStats {
	out := make([]PointStats, len(trials))
	for pt := range trials {
		out[pt] = reducePoint(schemes, trials[pt])
	}
	return out
}

// apSite accepts an AP position within 10 m of its cell center and at
// least 4 m from the cell's APs already placed.
func apSite(center testbed.Point, placed []testbed.Point) func(testbed.Point) bool {
	return func(p testbed.Point) bool {
		if testbed.Dist(p, center) > 10 {
			return false
		}
		for _, q := range placed {
			if testbed.Dist(p, q) < 4 {
				return false
			}
		}
		return true
	}
}

// clientSite accepts a client position 8-25 m from the nearest of aps —
// links with rate headroom, the regime where sender diversity pays.
func clientSite(aps []testbed.Point) func(testbed.Point) bool {
	return func(p testbed.Point) bool {
		nearest := testbed.Dist(p, aps[0])
		for _, q := range aps[1:] {
			if d := testbed.Dist(p, q); d < nearest {
				nearest = d
			}
		}
		return nearest >= 8 && nearest <= 25
	}
}

// placeCell draws one single-cell placement, the draw sequence the cell
// experiment has always used: the APs spread over the floor (each at
// least a quarter floor-width from the others; bounded rejection sampling
// fails loudly if the floor cannot hold them), then each client at a
// clientSite of them, with one shadowed link drawn from every AP.
func placeCell(rng *rand.Rand, env *testbed.Testbed, nAPs, nClients int) (aps, clientPos []testbed.Point, links [][]testbed.Link) {
	aps = make([]testbed.Point, nAPs)
	for a := range aps {
		aps[a] = env.RandomPointWhere(rng, 100000, func(p testbed.Point) bool {
			for _, q := range aps[:a] {
				if testbed.Dist(p, q) < env.Width/4 {
					return false
				}
			}
			return true
		})
	}
	links = make([][]testbed.Link, nClients)
	clientPos = make([]testbed.Point, nClients)
	for c := range links {
		pos := env.RandomPointWhere(rng, 100000, clientSite(aps))
		links[c] = make([]testbed.Link, nAPs)
		for a := range aps {
			links[c][a] = env.NewLink(rng, aps[a], pos)
		}
		clientPos[c] = pos
	}
	return aps, clientPos, links
}

// placeCells lays one multi-cell placement onto a copy of base, cell by
// cell in centers order: nAPs APs at apSites of the cell, then clientsPer
// clients at clientSites of its APs, each with one shadowed link drawn
// from every AP of its own cell (base.Env prices them). propose draws a
// point accepted by accept near center; h is the half-width of the square
// a cell-local proposer samples (10 m for APs, 35 m for clients). Client
// rows are cell-major, so runs reduce deterministically.
func placeCells(rng *rand.Rand, base lasthop.Cell, centers []testbed.Point, nAPs, clientsPer int,
	propose func(rng *rand.Rand, center testbed.Point, h float64, accept func(testbed.Point) bool) testbed.Point) lasthop.Cell {
	cell := base
	n := len(centers) * clientsPer
	cell.Links = make([][]testbed.Link, 0, n)
	cell.APPos = make([][]testbed.Point, 0, n)
	cell.ClientPos = make([]testbed.Point, 0, n)
	for _, center := range centers {
		aps := make([]testbed.Point, nAPs)
		for a := range aps {
			aps[a] = propose(rng, center, 10, apSite(center, aps[:a]))
		}
		for k := 0; k < clientsPer; k++ {
			pos := propose(rng, center, 35, clientSite(aps))
			links := make([]testbed.Link, nAPs)
			for a := range aps {
				links[a] = cell.Env.NewLink(rng, aps[a], pos)
			}
			cell.Links = append(cell.Links, links)
			cell.APPos = append(cell.APPos, aps)
			cell.ClientPos = append(cell.ClientPos, pos)
		}
	}
	return cell
}

// cellPitch is the distance between adjacent cell centers at a given
// carrier-sense range. Two constraints set it: APs sit up to 10 m from
// their center, so cross-cell AP pairs are pitch-20 apart and must clear
// carrier sense (the 2x term); and clients roam up to 35 m from their
// center (25 m from an AP that is itself 10 m out), so a client's distance
// to a foreign cell's AP bottoms out at pitch-45 — the CS+45 term keeps
// even that worst-case receiver a full carrier-sense range from the hidden
// transmitters next door, bounding (not eliminating) hidden-terminal
// corruption at cell boundaries.
func cellPitch(csRangeM float64) float64 {
	if csRangeM <= 0 {
		return 60
	}
	return math.Max(2*csRangeM, csRangeM+45)
}
