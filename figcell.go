package sourcesync

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/exor"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// ---------------------------------------------------------- cell family
//
// Every lasthop.Cell experiment — cell, cellsweep, metro, arrivals and
// mobility — runs its trials through one runner, runCells: a trial draws
// its layout, then runs each serving scheme on a fresh cell built from
// that layout, each on its own child stream. One reducer, reducePoint,
// folds a point's trials into the PointStats row every cell-family table
// prints, and reducePoints folds a sweep.

// SchemeStats is one serving scheme's outcome over a point's placements.
type SchemeStats struct {
	Scheme string
	// AggMbps is the scheme's aggregate-throughput CDF: one entry per
	// placement (delivered bits over the run's virtual time), sorted.
	AggMbps    []float64
	MedianMbps float64 // median of AggMbps
	// Stats adds up the scheme's flow counters over the placements.
	netsim.Stats
}

// PointStats is one row of every cell-family table — a swept value of the
// saturation experiments (clients per cell, cell count, carrier-sense
// range, metro density), one offered load of an arrival-driven scenario,
// or a backlogged scenario's one point: each scheme's outcome over the
// placements, and the joint runs' medium statistics.
type PointStats struct {
	RatePps float64 // per-client offered load; 0 for a backlogged point
	// Schemes holds one entry per scheme, in scheme-list order.
	Schemes []SchemeStats
	// MedianGain is the median over placements of joint/single aggregate
	// throughput; 0 unless both schemes ran.
	MedianGain float64
	// CollisionRate is the fraction of medium acquisitions whose transmit
	// groups collided, averaged over the joint runs.
	CollisionRate float64
	// HiddenRate is hidden-terminal corruptions per medium acquisition,
	// averaged over the joint runs: concurrent out-of-range downlinks
	// corrupting each other at the receivers.
	HiddenRate float64
	// CaptureRate is captures per acquisition averaged over the joint
	// runs: colliding downlinks the interference model let survive.
	CaptureRate float64
	// MeanUtilization is busy time over elapsed time in the joint runs;
	// values above 1 mean several cells carried frames concurrently
	// (spatial reuse at work). With the event-driven per-neighborhood
	// clock it approaches the cell count under saturation, minus what
	// hidden terminals and DCF overhead take.
	MeanUtilization float64
	// RateCorruption aggregates the interference model's per-rate outcomes
	// over every joint run at this point (index = SampleRate rate index):
	// interfered / corrupted / degraded counts and summed decode margins.
	RateCorruption []netsim.RateCorruption
	// HandoffsPerClient is the mean number of serving-cell changes each
	// client made over the window; 0 without mobility. The drift
	// trajectory is scheme-independent, so the last scheme's count stands
	// for each trial.
	HandoffsPerClient float64
}

// bothSchemes is the saturation experiments' scheme list: best single AP,
// then joint, the order their child streams are drawn in.
var bothSchemes = []string{scenario.SchemeSingle, scenario.SchemeJoint}

// runCells runs points x placements trials on one engine grid. Each trial
// draws its layout with place, which returns a builder of fresh cells over
// that layout, then runs each scheme in schemes on a fresh cell (single:
// best-single-AP service; joint: SourceSync joint service), each on a
// child RNG drawn from the trial stream in scheme order. Results come back as
// trials[point][placement][scheme], holding only the trials that ran: a
// canceled run drops the ones it never started (its output is discarded
// anyway).
func runCells(ec engine.Config, points, placements int, schemes []string,
	place func(pt int, rng *rand.Rand) func() lasthop.Cell) [][][]lasthop.CellResult {
	trials := engine.Grid(ec, points, placements, func(pt, _ int, rng *rand.Rand) []lasthop.CellResult {
		fresh := place(pt, rng)
		out := make([]lasthop.CellResult, len(schemes))
		for si, scheme := range schemes {
			if scheme == scenario.SchemeSingle {
				out[si] = fresh().RunBestSingleAP(engine.ChildRNG(rng))
			} else {
				out[si] = fresh().RunJoint(engine.ChildRNG(rng))
			}
		}
		return out
	})
	for pt := range trials {
		trials[pt] = slices.DeleteFunc(trials[pt], func(tr []lasthop.CellResult) bool { return tr == nil })
	}
	return trials
}

// aggBps selects scheme si's aggregate throughput from a trial's results.
func aggBps(si int) func([]lasthop.CellResult) float64 {
	return func(tr []lasthop.CellResult) float64 { return tr[si].AggregateBps }
}

// reducePoint folds one point's trials, run over schemes, into its
// PointStats row. Every sum runs in placement order, so float
// accumulation is deterministic: the joint runs' per-acquisition rates
// and utilization are summed and then divided once, and their per-rate
// corruption is merged run by run.
func reducePoint(schemes []string, trials [][]lasthop.CellResult) PointStats {
	var pt PointStats
	single, joint := -1, -1
	for si, scheme := range schemes {
		st := SchemeStats{Scheme: scheme, AggMbps: mbpsCDF(trials, aggBps(si))}
		st.MedianMbps = dsp.Median(st.AggMbps)
		for _, tr := range trials {
			st.Add(tr[si].Stats)
		}
		pt.Schemes = append(pt.Schemes, st)
		if scheme == scenario.SchemeSingle {
			single = si
		} else {
			joint = si
		}
	}
	if single >= 0 && joint >= 0 {
		pt.MedianGain = medianRatio(trials, aggBps(joint), aggBps(single))
	}
	handoffs, clients := 0, 0
	for _, tr := range trials {
		if joint >= 0 {
			j := tr[joint]
			if j.Acquisitions > 0 {
				pt.CollisionRate += float64(j.CollisionRounds) / float64(j.Acquisitions)
				pt.HiddenRate += float64(j.HiddenLosses) / float64(j.Acquisitions)
				pt.CaptureRate += float64(j.Captures) / float64(j.Acquisitions)
			}
			pt.MeanUtilization += j.Utilization
			pt.RateCorruption = netsim.MergeRateCorruption(pt.RateCorruption, j.RateCorruption)
		}
		last := tr[len(tr)-1]
		handoffs += last.Handoffs
		clients += len(last.PerClient)
	}
	if n := len(trials); n > 0 {
		pt.CollisionRate /= float64(n)
		pt.HiddenRate /= float64(n)
		pt.CaptureRate /= float64(n)
		pt.MeanUtilization /= float64(n)
	}
	if clients > 0 {
		pt.HandoffsPerClient = float64(handoffs) / float64(clients)
	}
	return pt
}

// reducePoints folds every point of a sweep, in swept-value order.
func reducePoints(schemes []string, trials [][][]lasthop.CellResult) []PointStats {
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

// ---------------------------------------------------------- crosstraffic

// CrossTrafficOptions configures the mesh cross-traffic experiment: the
// §8.4 topology's routed flow sharing its collision domain with contending
// single-hop flows between relays.
type CrossTrafficOptions struct {
	Topologies   int
	Packets      int // routed packets per run
	CrossFlows   int // contending single-hop flows
	CrossPackets int // backlog per cross flow
	Payload      int
	RateMbps     int // the routed flow's fixed rate
	Probes       int // measurement-phase probes per link
	// CSRangeM is the carrier-sense range between cross-flow transmitters
	// (meters). 0 keeps the classic single collision domain; positive
	// values enable spatial reuse — and hidden terminals — between cross
	// flows in different parts of the mesh. The routed flow's transmitter
	// moves hop by hop, so it always contends with everyone.
	CSRangeM float64
	// WidthScale stretches the mesh floor (and the relay spread) by this
	// factor; 0 or 1 keeps the default geometry. The spatial-mesh variant
	// pairs a stretched floor with a finite CSRangeM so relay-to-relay
	// cross flows land in different cells.
	WidthScale float64
}

// DefaultCrossTrafficOptions returns the parameters used by ssbench:
// one collision domain, SampleRate-adapted cross flows, rate-aware
// interference.
func DefaultCrossTrafficOptions() CrossTrafficOptions {
	return CrossTrafficOptions{
		Topologies: 20, Packets: 120, CrossFlows: 2,
		CrossPackets: 150, Payload: 1000, RateMbps: 12, Probes: 60,
	}
}

// SpatialCrossTrafficOptions returns the spatial-mesh variant used by
// ssbench: the floor stretched to 1.2x the mesh default with the relays
// spread across the span, and a carrier-sense range shortened to 20 m so
// relay-to-relay cross flows land in different cells — they reuse the
// medium concurrently and corrupt each other as hidden terminals, priced
// by the rate-aware interference model. Stretching much further kills the
// routed path outright (hops pass the 12 Mbps waterfall), so the variant
// leans on the shorter carrier sense for its spatial structure.
func SpatialCrossTrafficOptions() CrossTrafficOptions {
	o := DefaultCrossTrafficOptions()
	o.CSRangeM = 20
	o.WidthScale = 1.2
	return o
}

// CrossTrafficResult compares single-path routing and ExOR+SourceSync with
// and without cross traffic on the same topologies.
type CrossTrafficResult struct {
	SinglePathAloneMbps  []float64 // sorted CDFs, one entry per topology
	SinglePathLoadedMbps []float64
	SourceSyncAloneMbps  []float64
	SourceSyncLoadedMbps []float64
	// Median ratios of loaded over alone throughput (1 = unaffected).
	SinglePathRetention float64
	SourceSyncRetention float64
	// Median of SourceSync-loaded over single-path-loaded: does sender
	// diversity still pay under contention?
	GainUnderLoad float64
	// CrossHiddenLosses totals the cross flows' attempts corrupted by
	// hidden terminals across every loaded run (spatial variant only).
	CrossHiddenLosses int
	// CrossRateCorruption aggregates the interference model's per-rate
	// outcomes over the cross flows of every loaded run (index = standard
	// rate index).
	CrossRateCorruption []netsim.RateCorruption
}

// RunCrossTraffic regenerates the cross-traffic comparison over random
// §8.4 mesh topologies: relays carry their own contending flows while the
// source routes packets to the destination. With o.CSRangeM set (the
// spatial-mesh variant) the relays are spread across a stretched floor, so
// cross flows in different cells reuse the medium concurrently and corrupt
// each other as hidden terminals.
func RunCrossTraffic(ec engine.Config, o CrossTrafficOptions) CrossTrafficResult {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	if o.WidthScale > 1 {
		env.Width *= o.WidthScale
	}
	rate, err := modem.RateByMbps(o.RateMbps)
	if err != nil {
		panic(err)
	}
	m := mac.Default(cfg)
	// The rate-aware model prices the cross flows' rate table: the
	// standard rates they adapt over.
	model := netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload)

	type tpRes struct {
		spAlone, spLoaded, ssAlone, ssLoaded float64
		crossHidden                          int
		crossCorruption                      []netsim.RateCorruption
	}
	// The spatial variant spreads relays across a stretched floor, where a
	// fraction of draws land with every src -> dst path past the rate's
	// waterfall: the routed run then measures a dead topology, not
	// contention. ETX-aware placement fixes that in two bounded stages:
	// the shadowing-SNR proxy inside randomMeshTopology prunes hopeless
	// geometry before the measurement phase, and if the measured ETX graph
	// still leaves the destination unreachable (fading in the probe draws
	// can kill a proxy-approved chain), the whole topology re-rolls. The
	// compact variant keeps nil + no re-roll to stay draw-identical to its
	// history.
	var routable func(*exor.Topology) bool
	if o.CSRangeM > 0 {
		routable = meshRoutablePredicate(cfg, rate, o.Payload)
	}
	rows := engine.Map(ec, 0, o.Topologies, func(tp int, rng *rand.Rand) tpRes {
		topo := randomMeshTopology(rng, env, o.CSRangeM > 0, routable)
		meas := topo.Measure(rng, rate, o.Payload, o.Probes, 0.1)
		for tries := 0; routable != nil && math.IsInf(meas.DistTo[0], 1) && tries < meshRelayRedraws; tries++ {
			topo = randomMeshTopology(rng, env, true, routable)
			meas = topo.Measure(rng, rate, o.Payload, o.Probes, 0.1)
		}
		sim := &exor.Sim{Topo: topo, Meas: meas, Mac: m, Rate: rate, Payload: o.Payload,
			CSRangeM: o.CSRangeM, Model: model}
		// Cross flows between distinct relays (nodes 1..N-2), drawn per
		// topology.
		relays := topo.N() - 2
		cross := make([]exor.CrossFlow, o.CrossFlows)
		for i := range cross {
			from := 1 + rng.Intn(relays)
			to := 1 + rng.Intn(relays-1)
			if to >= from {
				to++
			}
			cross[i] = exor.CrossFlow{From: from, To: to, Packets: o.CrossPackets}
		}
		spAlone := sim.Run(engine.ChildRNG(rng), exor.SinglePath, o.Packets)
		spLoaded, spCross := sim.RunWithCross(engine.ChildRNG(rng), exor.SinglePath, o.Packets, cross)
		ssAlone := sim.Run(engine.ChildRNG(rng), exor.ExORSourceSync, o.Packets)
		ssLoaded, ssCross := sim.RunWithCross(engine.ChildRNG(rng), exor.ExORSourceSync, o.Packets, cross)
		r := tpRes{spAlone: spAlone.ThroughputBps, spLoaded: spLoaded.ThroughputBps,
			ssAlone: ssAlone.ThroughputBps, ssLoaded: ssLoaded.ThroughputBps}
		for _, c := range append(spCross, ssCross...) {
			r.crossHidden += c.Flow.HiddenLosses
			r.crossCorruption = netsim.MergeRateCorruption(r.crossCorruption, c.RateCorruption)
		}
		return r
	})

	spAlone := func(r tpRes) float64 { return r.spAlone }
	spLoaded := func(r tpRes) float64 { return r.spLoaded }
	ssAlone := func(r tpRes) float64 { return r.ssAlone }
	ssLoaded := func(r tpRes) float64 { return r.ssLoaded }
	res := CrossTrafficResult{
		SinglePathAloneMbps:  mbpsCDF(rows, spAlone),
		SinglePathLoadedMbps: mbpsCDF(rows, spLoaded),
		SourceSyncAloneMbps:  mbpsCDF(rows, ssAlone),
		SourceSyncLoadedMbps: mbpsCDF(rows, ssLoaded),
		SinglePathRetention:  medianRatio(rows, spLoaded, spAlone),
		SourceSyncRetention:  medianRatio(rows, ssLoaded, ssAlone),
		GainUnderLoad:        medianRatio(rows, ssLoaded, spLoaded),
	}
	for _, r := range rows {
		res.CrossHiddenLosses += r.crossHidden
		res.CrossRateCorruption = netsim.MergeRateCorruption(res.CrossRateCorruption, r.crossCorruption)
	}
	return res
}
