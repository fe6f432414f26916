package sourcesync

import (
	"math/rand"
	"sort"

	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/etx"
	"repro/internal/exor"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/permodel"
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

// Fig17Result carries the two throughput CDFs and their median gain.
type Fig17Result struct {
	SingleMbps []float64 // sorted, one per placement (best single AP)
	JointMbps  []float64 // sorted, same placements with SourceSync
	MedianGain float64
}

// RunFig17 regenerates Figure 17: CDFs of client throughput using the best
// single AP versus both APs jointly with SourceSync (paper: median 1.57x).
func RunFig17(ec engine.Config, o Fig17Options) Fig17Result {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	m := mac.Default(cfg)

	type plRes struct{ singleBps, jointBps float64 }
	rows := engine.Map(ec, 0, o.Placements, func(pl int, rng *rand.Rand) plRes {
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
		single := bestSingleAPBps(engine.ChildRNG(rng), c)
		joint := c.RunJoint(engine.ChildRNG(rng))
		return plRes{single, joint.AggregateBps}
	})
	single := func(r plRes) float64 { return r.singleBps }
	joint := func(r plRes) float64 { return r.jointBps }
	return Fig17Result{
		SingleMbps: mbpsCDF(rows, single),
		JointMbps:  mbpsCDF(rows, joint),
		MedianGain: medianRatio(rows, joint, single),
	}
}

// bestSingleAPBps is Fig. 17's selective-diversity baseline for the
// one-client cell c: it runs the client with each AP alone, one child RNG
// per AP in AP order, and returns the highest throughput. Unlike
// Cell.RunBestSingleAP, which serves from the highest-SNR AP, it tries
// every AP.
func bestSingleAPBps(rng *rand.Rand, c lasthop.Cell) float64 {
	var best float64
	for _, link := range c.Links[0] {
		alone := c
		alone.Links = [][]testbed.Link{{link}}
		r := alone.RunBestSingleAP(engine.ChildRNG(rng))
		best = max(best, r.AggregateBps)
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

// ---------------------------------------------------------------- Fig. 18

// Fig18Options configures the opportunistic routing experiment (§8.4).
type Fig18Options struct {
	Topologies int
	Packets    int
	Payload    int
	RateMbps   int // 6 or 12, per the paper
	Probes     int // measurement-phase probes per link
}

// DefaultFig18Options returns the parameters used by ssbench.
func DefaultFig18Options(rateMbps int) Fig18Options {
	return Fig18Options{
		Topologies: 20, Packets: 150, Payload: 1000,
		RateMbps: rateMbps, Probes: 60,
	}
}

// Fig18Result carries the three throughput CDFs and median gains.
type Fig18Result struct {
	RateMbps       int
	SinglePathMbps []float64
	ExORMbps       []float64
	SourceSyncMbps []float64
	// Median gains over the per-topology ratios.
	GainExOROverSP float64
	GainSSOverExOR float64
	GainSSOverSP   float64
}

// RunFig18 regenerates Figure 18 at one bit rate: CDFs of throughput for
// single-path routing, ExOR, and ExOR+SourceSync over random 5-node
// topologies (source, three relays, destination). The mesh is stretched
// so links sit near the chosen rate's waterfall (the paper picked
// topologies with lossy links at each rate): the more robust rates up to
// 6 Mbps need an 18% wider floor to see the same loss rates.
func RunFig18(ec engine.Config, o Fig18Options) Fig18Result {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	if o.RateMbps <= 6 {
		env.Width *= 1.18
	}
	rate, err := modem.RateByMbps(o.RateMbps)
	if err != nil {
		panic(err)
	}
	m := mac.Default(cfg)

	type tpRes struct{ spBps, exBps, ssBps float64 }
	rows := engine.Map(ec, 0, o.Topologies, func(tp int, rng *rand.Rand) tpRes {
		topo := randomMeshTopology(rng, env, false, nil)
		meas := topo.Measure(rng, rate, o.Payload, o.Probes, 0.1)
		sim := &exor.Sim{Topo: topo, Meas: meas, Mac: m, Rate: rate, Payload: o.Payload}
		sp := sim.Run(engine.ChildRNG(rng), exor.SinglePath, o.Packets)
		ex := sim.Run(engine.ChildRNG(rng), exor.ExOR, o.Packets)
		ss := sim.Run(engine.ChildRNG(rng), exor.ExORSourceSync, o.Packets)
		return tpRes{sp.ThroughputBps, ex.ThroughputBps, ss.ThroughputBps}
	})
	sp := func(r tpRes) float64 { return r.spBps }
	ex := func(r tpRes) float64 { return r.exBps }
	ss := func(r tpRes) float64 { return r.ssBps }
	return Fig18Result{
		RateMbps:       o.RateMbps,
		SinglePathMbps: mbpsCDF(rows, sp),
		ExORMbps:       mbpsCDF(rows, ex),
		SourceSyncMbps: mbpsCDF(rows, ss),
		GainExOROverSP: medianRatio(rows, ex, sp),
		GainSSOverExOR: medianRatio(rows, ss, ex),
		GainSSOverSP:   medianRatio(rows, ss, sp),
	}
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

// ------------------------------------------------------ trial reductions
//
// Every packet-level table reduces its trials the same two ways: a
// scheme's throughput CDF and the median of a per-trial ratio.

// mbpsCDF is one scheme's throughput CDF: bps of every trial, in Mbps,
// sorted.
func mbpsCDF[T any](trials []T, bps func(T) float64) []float64 {
	out := make([]float64, 0, len(trials))
	for _, tr := range trials {
		out = append(out, bps(tr)/1e6)
	}
	sort.Float64s(out)
	return out
}

// medianRatio is the median over trials of num/den, skipping the trials
// whose den is not positive (a baseline that delivered nothing gives no
// ratio).
func medianRatio[T any](trials []T, num, den func(T) float64) float64 {
	var ratios []float64
	for _, tr := range trials {
		if d := den(tr); d > 0 {
			ratios = append(ratios, num(tr)/d)
		}
	}
	return dsp.Median(ratios)
}
