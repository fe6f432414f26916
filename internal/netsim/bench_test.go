package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/samplerate"
	"repro/internal/testbed"
)

// The benchmarks below time the event scheduler's hot loop in its three
// regimes — one saturated collision domain, disjoint neighborhoods reusing
// the medium, and hidden-terminal interference — so CI's bench job records
// the simulator's perf trajectory (BENCH_netsim.json) as the contention
// core evolves. Delivery draws are a coin flip: the point is the
// scheduler's cost, not the PHY's. The one exception is StepScaling's
// metro tier, which reproduces an experiment's traffic, rate adaptation
// and delivery draws included.

func benchSim(seed int64) (*Sim, *testbed.Testbed) {
	cfg := modem.Profile80211()
	s := New(mac.Default(cfg), rand.New(rand.NewSource(seed)))
	return s, testbed.Default(cfg)
}

func BenchmarkSaturatedDomain(b *testing.B) {
	// 8 stations, one collision domain, 50 frames each.
	frames := 0
	for i := 0; i < b.N; i++ {
		s, _ := benchSim(int64(1 + i))
		for f := 0; f < 8; f++ {
			s.AddFlow(backloggedFlow("f", 50, 1e-3, 0.9))
		}
		s.Run()
		frames += 8 * 50
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkSpatialReuseCells(b *testing.B) {
	// 4 disjoint cells of 2 stations each: the per-neighborhood clock path.
	frames := 0
	for i := 0; i < b.N; i++ {
		s, env := benchSim(int64(2 + i))
		s.CSRangeM = 30
		s.Env = env
		for c := 0; c < 4; c++ {
			base := float64(c) * 200
			for k := 0; k < 2; k++ {
				x := base + float64(k)
				s.AddFlow(placedFlow("f", 50, 1e-3,
					testbed.Point{X: x, Y: 0}, testbed.Point{X: x + 5, Y: 0}, 30))
			}
		}
		s.Run()
		frames += 4 * 2 * 50
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkHiddenTerminalPair(b *testing.B) {
	// Two out-of-range senders corrupting each other's receivers: the
	// interference-scan path (overlap bookkeeping, SINR pricing).
	for i := 0; i < b.N; i++ {
		s, env := benchSim(int64(3 + i))
		s.CSRangeM = 50
		s.Model = LegacyThreshold{CaptureDB: 10}
		s.Env = env
		s.AddFlow(placedFlow("a", 50, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 58, Y: 0}, 25))
		s.AddFlow(placedFlow("b", 50, 1e-3, testbed.Point{X: 60, Y: 0}, testbed.Point{X: 2, Y: 0}, 25))
		s.Run()
	}
}

// benchInterference drains a saturated hidden-terminal pair under the
// given interference model — the hot path where every settled frame pays
// for effectiveSINRdB (overlap sweep) plus one model Settle call. The
// frames/s metric lands in BENCH_netsim.json so the interference layer's
// cost is tracked per commit; CI's bench job fails if these benchmarks
// vanish from the artifact. The model is constructed by the caller and
// excluded from the timed region: at CI's -benchtime 1x a cold
// RateAware construction (decode-threshold bisection over the PER
// curves) would otherwise dwarf the settle path it exists to measure —
// that one-time cost is visible in the ssserve/ssbench profiles instead.
func benchInterference(b *testing.B, model InterferenceModel) {
	const packets = 50
	frames := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, env := benchSim(int64(4 + i))
		s.CSRangeM = 50
		s.Model = model
		s.Env = env
		s.AddFlow(placedFlow("a", packets, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 58, Y: 0}, 25))
		s.AddFlow(placedFlow("b", packets, 1e-3, testbed.Point{X: 60, Y: 0}, testbed.Point{X: 2, Y: 0}, 25))
		s.Run()
		frames += 2 * packets
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkInterferenceLegacyThreshold(b *testing.B) {
	benchInterference(b, LegacyThreshold{CaptureDB: 10})
}

func BenchmarkInterferenceRateAware(b *testing.B) {
	cfg := modem.Profile80211()
	benchInterference(b, NewRateAware(cfg, modem.StandardRates(), 1460))
}

// BenchmarkLinkDeliver and BenchmarkJointLinkDeliver time one delivery
// draw (DrawDelivery) with one link and with two — a fresh multipath
// realization per sender, the per-subcarrier SNR combine, and the
// certified PER verdict — the cost every rate-aware settle and every
// lasthop/exor packet pays. Links are NLOS (Rayleigh) on the 802.11
// profile; the joint draw is a two-sender SourceSync group. One warm-up
// draw before the timed loop builds permodel's certificate tables, so a
// single-iteration run times a draw, not that one-time build. Both report
// allocs/op: CI requires the joint draw's, and
// TestDeliveryDrawsAllocateNothing holds both at 0.
func BenchmarkLinkDeliver(b *testing.B) {
	env := testbed.Default(modem.Profile80211())
	benchDelivery(b, []testbed.Link{env.LinkAtSNR(15, 20)})
}

func BenchmarkJointLinkDeliver(b *testing.B) {
	env := testbed.Default(modem.Profile80211())
	benchDelivery(b, []testbed.Link{env.LinkAtSNR(15, 20), env.LinkAtSNR(12, 25)})
}

func benchDelivery(b *testing.B, links []testbed.Link) {
	rate := modem.StandardRates()[4]
	rng := rand.New(rand.NewSource(1))
	DrawDelivery(rng, links, rate, 1460, 0.8)
	b.ReportAllocs()
	delivered := 0
	for b.Loop() {
		if DrawDelivery(rng, links, rate, 1460, 0.8) {
			delivered++
		}
	}
	deliverSink = delivered
}

var deliverSink int

// BenchmarkStepScaling drives the indexed scheduler across city sizes —
// 100 through 100k concurrent placed flows in 4-client cells on a square
// grid — and reports the cost per Step (ns/event) and per transmission
// attempt (ns/attempt). Under the spatial index and the event heap both
// should stay near-flat as the city grows (each event touches only
// grid-nearby flows); the pairwise scans they replaced grew
// superlinearly. One Step settles every event due at its instant, and the
// tiers put very different numbers of attempts into one Step (the legacy
// gate kills most frames, the rate-aware tier almost none), so only
// ns/attempt compares across tiers. The model=rateaware variant reruns the
// 10k city under the PER-curve interference model, so the settle path's
// cached pricing is measured at scale and not just on the two-flow
// hidden-terminal pair above. That tier sends every frame at rate 0 (6
// Mbps) and runs about five attempts per flow, so its per-flow memo builds
// weigh on it; the traffic=metro tier runs the metro experiment's
// best-single-AP traffic instead (metroCity), 20 packets on each of 2,000
// flows. CI's bench job archives these numbers in BENCH_netsim.json and
// gates regressions against the committed baseline via `benchjson
// -baseline` (and `-require`s them, so a silently dropped tier fails the
// job rather than vanishing from the artifact).
func BenchmarkStepScaling(b *testing.B) {
	cfg := modem.Profile80211()
	rateAware := NewRateAware(cfg, modem.StandardRates(), 1460)
	legacy := LegacyThreshold{CaptureDB: 10}
	cases := []struct {
		name    string
		flows   int
		packets int
		model   InterferenceModel
		metro   bool // lay the city out with metroCity
	}{
		{"flows=100", 100, 4, legacy, false},
		{"flows=1000", 1000, 4, legacy, false},
		{"flows=10000", 10000, 4, legacy, false},
		// Two packets per flow keep the largest city inside CI's time
		// budget while still running ~10x more events than the 10k tier.
		{"flows=100000", 100000, 2, legacy, false},
		{"flows=10000/model=rateaware", 10000, 4, rateAware, false},
		{"flows=2000/model=rateaware/traffic=metro", 2000, 20, rateAware, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			const clientsPer = 4
			cells := tc.flows / clientsPer
			side := int(math.Ceil(math.Sqrt(float64(cells))))
			events, attempts := 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, env := benchSim(int64(5 + i))
				s.CSRangeM = 45
				s.InterferenceRangeM = 150
				s.Model = tc.model
				if tc.metro {
					metroCity(s, rand.New(rand.NewSource(int64(5+i))), tc.flows, tc.packets)
				} else {
					s.Env = env
					for c := 0; c < cells; c++ {
						cx := float64(c%side)*60 + 30
						cy := float64(c/side)*60 + 30
						for k := 0; k < clientsPer; k++ {
							tx := testbed.Point{X: cx + float64(k), Y: cy}
							rx := testbed.Point{X: cx + float64(k), Y: cy + 10}
							s.AddFlow(placedFlow("f", tc.packets, 1e-3, tx, rx, 25))
						}
					}
				}
				for s.Step() {
					events++
				}
				for _, f := range s.Flows {
					attempts += f.Attempts
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// metroCity adds flows downlinks laid out and driven as the metro
// experiment's best-single-AP runs are (figmetro.go and lasthop's Cell):
// cells of eight clients at metro's 90 m pitch (its pitch at a 45 m
// carrier-sense range) on a square grid, each with two APs within 10 m of
// its center and at least 4 m apart, and each client drawn in the 70 m
// square around the center until its nearest AP is 8-25 m away. Links
// come from the mesh environment, which becomes s's Env for pricing
// interference. Each client is served by its best AP, a per-flow
// SampleRate picks every frame's rate (Prepare) and learns from its
// outcome (Done), and DrawDelivery draws the delivery over the link, for
// packets packets.
func metroCity(s *Sim, rng *rand.Rand, flows, packets int) {
	const clientsPer, pitch, payload = 8, 90.0, 1460
	env := testbed.Mesh(modem.Profile80211())
	s.Env = env
	rates := modem.StandardRates()
	ft := make([]float64, len(rates))
	for r, rate := range rates {
		ft[r] = s.Mac.FrameDuration(rate, payload)
	}
	cells := flows / clientsPer
	side := int(math.Ceil(math.Sqrt(float64(cells))))
	draw := func(center testbed.Point, h float64, ok func(testbed.Point) bool) testbed.Point {
		for {
			p := testbed.Point{X: center.X + (rng.Float64()*2-1)*h, Y: center.Y + (rng.Float64()*2-1)*h}
			if ok(p) {
				return p
			}
		}
	}
	for c := 0; c < cells; c++ {
		center := testbed.Point{X: float64(c%side)*pitch + pitch/2, Y: float64(c/side)*pitch + pitch/2}
		var aps [2]testbed.Point
		for a := range aps {
			aps[a] = draw(center, 10, func(p testbed.Point) bool {
				return testbed.Dist(p, center) <= 10 && (a == 0 || testbed.Dist(p, aps[0]) >= 4)
			})
		}
		for k := 0; k < clientsPer; k++ {
			pos := draw(center, 35, func(p testbed.Point) bool {
				d := math.Min(testbed.Dist(p, aps[0]), testbed.Dist(p, aps[1]))
				return d >= 8 && d <= 25
			})
			link, ap := env.NewLink(rng, aps[0], pos), aps[0]
			if l := env.NewLink(rng, aps[1], pos); l.SNRdB > link.SNRdB {
				link, ap = l, aps[1]
			}
			links := []testbed.Link{link}
			sr := samplerate.New(ft)
			remaining := packets
			s.AddFlow(&Flow{
				Acked:      true,
				Radio:      &Radio{TxPos: ap, RxPos: pos, SNRdB: link.SNRdB},
				HasTraffic: func() bool { return remaining > 0 },
				Prepare: func(rng *rand.Rand) int {
					idx, _ := sr.Pick(rng)
					return idx
				},
				FrameTime: func(i int) float64 { return ft[i] },
				Deliver: func(rng *rand.Rand, i int, ix Interference) bool {
					return DrawDelivery(rng, links, sr.Rate(i), payload, ix.SNRScale)
				},
				Done: func(i int, delivered bool, air float64) {
					remaining--
					sr.Update(i, delivered, air)
				},
			})
		}
	}
}
