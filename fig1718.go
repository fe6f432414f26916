package sourcesync

import (
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/etx"
	"repro/internal/exor"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/permodel"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// ---------------------------------------------------------------- Fig. 17

// Fig17Options configures the last-hop diversity experiment (§8.3).
type Fig17Options struct {
	Placements int // random AP/AP/client placements
	Packets    int // downlink packets per run
	Payload    int
}

// DefaultFig17Options returns the parameters used by ssbench.
func DefaultFig17Options() Fig17Options {
	return Fig17Options{Placements: 40, Packets: 400, Payload: 1460}
}

// schemeEveryAP is fig17's selective-diversity baseline: the client served
// by each AP alone in turn, keeping the best run (bestOfAPs). It is not a
// scenario scheme, so no spec can name it.
const schemeEveryAP = "every-ap"

// RunFig17 regenerates Figure 17: CDFs of client throughput using the best
// single AP versus both APs jointly with SourceSync (paper: median 1.57x).
// Schemes[0] of the returned row is the best single AP and Schemes[1]
// joint service, so MedianGain(1, 0) is the median gain.
func RunFig17(ec engine.Config, o Fig17Options) PointStats {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	m := mac.Default(cfg)
	schemes := []string{schemeEveryAP, scenario.SchemeJoint}
	return reducePoint(schemes, runCells(ec, 1, o.Placements, schemes, func(_ int, rng *rand.Rand) func() lasthop.Cell {
		client := env.RandomPoint(rng)
		// Two APs with usable-but-not-saturated links, per the paper's
		// motivation (clients with poor connectivity to multiple nearby
		// APs): both land where the rate table still has headroom.
		ap1 := nearbyPoint(rng, env, client, 8, 25)
		ap2 := nearbyPoint(rng, env, client, 8, 25)
		c := lasthop.Cell{
			Mac:          m,
			PayloadBytes: o.Payload,
			Links: [][]testbed.Link{{
				env.NewLink(rng, ap1, client),
				env.NewLink(rng, ap2, client),
			}},
			PacketsPerClient: o.Packets,
		}
		return func() lasthop.Cell { return c }
	})[0])
}

// bestOfAPs runs fig17's baseline on the one-client cell c: the client
// with each AP alone, one child RNG per AP in AP order. It returns the run
// with the highest throughput, the first such run on a tie. Unlike
// Cell.RunBestSingleAP, which serves from the highest-SNR AP, it tries
// every AP.
func bestOfAPs(c lasthop.Cell, rng *rand.Rand) lasthop.CellResult {
	var best lasthop.CellResult
	for a, link := range c.Links[0] {
		alone := c
		alone.Links = [][]testbed.Link{{link}}
		if r := alone.RunBestSingleAP(engine.ChildRNG(rng)); a == 0 || r.AggregateBps > best.AggregateBps {
			best = r
		}
	}
	return best
}

// nearbyPoint draws a point between minDist and maxDist meters of ref.
// Attempts are bounded: an unsatisfiable annulus (e.g. a reference off the
// floor) panics instead of spinning forever.
func nearbyPoint(rng *rand.Rand, env *testbed.Testbed, ref testbed.Point, minDist, maxDist float64) testbed.Point {
	return env.RandomPointWhere(rng, 100000, func(p testbed.Point) bool {
		d := testbed.Dist(p, ref)
		return d >= minDist && d <= maxDist
	})
}

// ----------------------------------------------- Fig. 18 and crosstraffic

// MeshOptions configures the §8.4 mesh experiments over random 5-node
// topologies: fig18's routed flow alone, and crosstraffic's routed flow
// sharing its collision domain with contending single-hop flows between
// relays.
type MeshOptions struct {
	Topologies   int
	Packets      int // routed packets per run
	CrossFlows   int // contending single-hop flows; none for fig18
	CrossPackets int // backlog per cross flow
	Payload      int
	// RateMbps is the routed flow's fixed rate (the paper's 6 or 12).
	// Rates up to 6 Mbps run on an 18% wider floor (runMesh).
	RateMbps int
	Probes   int // measurement-phase probes per link
	// CSRangeM is the carrier-sense range between cross-flow transmitters
	// (meters). 0 keeps the classic single collision domain; positive
	// values enable spatial reuse — and hidden terminals — between cross
	// flows in different parts of the mesh, and spread the relays across
	// the span with ETX-aware placement. The routed flow's transmitter
	// moves hop by hop, so it always contends with everyone.
	CSRangeM float64
	// WidthScale stretches the mesh floor (and the relay spread) by this
	// factor; 0 or 1 keeps the default geometry. The spatial-mesh variant
	// pairs a stretched floor with a finite CSRangeM so relay-to-relay
	// cross flows land in different cells.
	WidthScale float64
}

// DefaultFig18Options returns the parameters used by ssbench.
func DefaultFig18Options(rateMbps int) MeshOptions {
	return MeshOptions{
		Topologies: 20, Packets: 150, Payload: 1000,
		RateMbps: rateMbps, Probes: 60,
	}
}

// DefaultCrossTrafficOptions returns the parameters used by ssbench:
// one collision domain, SampleRate-adapted cross flows, rate-aware
// interference.
func DefaultCrossTrafficOptions() MeshOptions {
	return MeshOptions{
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
func SpatialCrossTrafficOptions() MeshOptions {
	o := DefaultCrossTrafficOptions()
	o.CSRangeM = 20
	o.WidthScale = 1.2
	return o
}

// RunFig18 regenerates Figure 18 at one bit rate: CDFs of throughput for
// single-path routing, ExOR, and ExOR+SourceSync over random 5-node
// topologies (source, three relays, destination). The returned row's
// Schemes are single path, ExOR and ExOR+SourceSync, then an empty cross
// row: MedianGain(1, 0), (2, 1) and (2, 0) are the paper's three ratios.
func RunFig18(ec engine.Config, o MeshOptions) PointStats {
	return runMesh(ec, o, []meshRun{{exor.SinglePath, false}, {exor.ExOR, false}, {exor.ExORSourceSync, false}})
}

// RunCrossTraffic regenerates the cross-traffic comparison over random
// §8.4 mesh topologies: relays carry their own contending flows while the
// source routes packets to the destination. With o.CSRangeM set (the
// spatial-mesh variant) the relays are spread across a stretched floor, so
// cross flows in different cells reuse the medium concurrently and corrupt
// each other as hidden terminals. The returned row's Schemes are single
// path alone and loaded, ExOR+SourceSync alone and loaded, then the cross
// row: MedianGain(1, 0) and (3, 2) are the retentions under load, and
// (3, 1) SourceSync's gain under load.
func RunCrossTraffic(ec engine.Config, o MeshOptions) PointStats {
	return runMesh(ec, o, []meshRun{
		{exor.SinglePath, false}, {exor.SinglePath, true},
		{exor.ExORSourceSync, false}, {exor.ExORSourceSync, true},
	})
}

// meshRun is one routed run of a mesh trial: a routing scheme, alone or
// loaded with the trial's cross flows.
type meshRun struct {
	scheme exor.Scheme
	loaded bool
}

// runMesh runs o.Topologies mesh trials. Each trial draws a topology,
// runs the measurement phase, draws o.CrossFlows cross flows between
// distinct relays, then simulates each entry of runs on its own child
// stream, in list order. The returned row holds each run's routed flow, in
// list order, then a "cross" row that adds up the cross flows of every
// loaded run (its throughputs are zero).
//
// The mesh is stretched so links sit near the chosen rate's waterfall
// (the paper picked topologies with lossy links at each rate): the more
// robust rates up to 6 Mbps need an 18% wider floor to see the same loss
// rates. The rate-aware model prices the cross flows' rate table, the
// standard rates they adapt over; netsim consults it only for placed
// flows, so the routed flow alone never does.
func runMesh(ec engine.Config, o MeshOptions, runs []meshRun) PointStats {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	if o.RateMbps <= 6 {
		env.Width *= 1.18
	}
	if o.WidthScale > 1 {
		env.Width *= o.WidthScale
	}
	rate, err := modem.RateByMbps(o.RateMbps)
	if err != nil {
		panic(err)
	}
	m := mac.Default(cfg)
	model := netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload)
	// The spatial variant spreads relays across a stretched floor, where a
	// fraction of draws land with every src -> dst path past the rate's
	// waterfall: the routed run then measures a dead topology, not
	// contention. ETX-aware placement fixes that in two bounded stages:
	// the shadowing-SNR proxy inside randomMeshTopology prunes hopeless
	// geometry before the measurement phase, and if the measured ETX graph
	// still leaves the destination unreachable (fading in the probe draws
	// can kill a proxy-approved chain), the whole topology re-rolls. The
	// compact experiments keep nil + no re-roll to stay draw-identical to
	// their history.
	var routable func(*exor.Topology) bool
	if o.CSRangeM > 0 {
		routable = meshRoutablePredicate(cfg, rate, o.Payload)
	}
	names := make([]string, 0, len(runs)+1)
	for _, r := range runs {
		name := r.scheme.String()
		if r.loaded {
			name += "+load"
		}
		names = append(names, name)
	}
	names = append(names, "cross")
	trials := runTrials(ec, 1, o.Topologies, func(_ int, rng *rand.Rand) []schemeRun {
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
		out := make([]schemeRun, len(runs)+1)
		crossRow := &out[len(runs)]
		for i, r := range runs {
			var load []exor.CrossFlow
			if r.loaded {
				load = cross
			}
			res, crossRes := sim.RunWithCross(engine.ChildRNG(rng), r.scheme, o.Packets, load)
			out[i] = schemeRun{bps: res.ThroughputBps, Stats: res.Flow, rateCorruption: res.RateCorruption}
			for _, c := range crossRes {
				crossRow.Add(c.Flow)
				crossRow.rateCorruption = netsim.MergeRateCorruption(crossRow.rateCorruption, c.RateCorruption)
			}
		}
		return out
	})
	return reducePoint(names, trials[0])
}

// randomMeshTopology draws the paper's 5-node shape: source and destination
// far apart, three relays placed between them. With spread false the relays
// sit closer to the source, so the relay -> destination hop operates near
// the rate's waterfall — the lossy regime where sender diversity pays (the
// direct src -> dst link is essentially dead). With spread true (the
// spatial-mesh cross-traffic variant) the relays are staggered across the
// whole span, so relay-to-relay cross flows on a stretched floor land in
// different carrier-sense cells. Both shapes consume the same RNG draws in
// the same order, so spread false stays draw-for-draw identical to the
// historical topology.
//
// A non-nil routable predicate makes the placement ETX-aware: candidate
// topologies whose shadowing draws left no usable source -> destination
// route redraw the three relays (source and destination stay put) and
// their links, up to meshRelayRedraws times. The predicate must be a pure
// function of the drawn topology — it may not consume RNG draws — so a
// first-draw-routable topology costs exactly the historical draw
// sequence. Callers needing draw-for-draw identity with the historical
// topologies (fig18, the non-spatial cross-traffic variant) pass nil.
func randomMeshTopology(rng *rand.Rand, env *testbed.Testbed, spread bool, routable func(*exor.Topology) bool) *exor.Topology {
	w, h := env.Width, env.Height
	src := testbed.Point{X: rng.Float64() * 0.08 * w, Y: rng.Float64() * h}
	dst := testbed.Point{X: (0.92 + rng.Float64()*0.08) * w, Y: rng.Float64() * h}
	draw := func() *exor.Topology {
		pts := []testbed.Point{src}
		for r := 0; r < 3; r++ {
			lo := 0.25
			if spread {
				lo = 0.15 + 0.25*float64(r)
			}
			pts = append(pts, testbed.Point{
				X: (lo + rng.Float64()*0.2) * w,
				Y: rng.Float64() * h,
			})
		}
		pts = append(pts, dst)
		return exor.NewTopology(rng, env, pts)
	}
	topo := draw()
	if routable != nil {
		// Bounded redraws: a floor drawn hostile everywhere keeps the last
		// candidate rather than spinning, so the run stays deterministic
		// and finite either way.
		for tries := 0; !routable(topo) && tries < meshRelayRedraws; tries++ {
			topo = draw()
		}
	}
	return topo
}

// meshRelayRedraws bounds ETX-aware relay re-placement per topology.
const meshRelayRedraws = 20

// meshRoutablePredicate builds the ETX routability proxy for spread mesh
// placements: each drawn link gets the delivery probability of its static
// (post-shadowing) average SNR under the flat-channel PER model — a pure
// function of the topology, no probe draws — sub-10% links are pruned the
// way the routing measurement phase prunes them, and a candidate counts
// as routable when a finite-ETX path connects source to destination.
func meshRoutablePredicate(cfg *modem.Config, rate modem.Rate, payloadBytes int) func(*exor.Topology) bool {
	return func(t *exor.Topology) bool {
		n := t.N()
		g := etx.NewGraph(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				p := 1 - permodel.FlatPER(cfg, rate, payloadBytes, t.Links[i][j].SNRdB)
				if p < 0.1 {
					continue
				}
				g.AddLink(i, j, etx.LinkETX(p, p))
			}
		}
		path, _ := g.ShortestPath(0, n-1)
		return path != nil
	}
}
