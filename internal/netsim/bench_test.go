package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// The benchmarks below time the event scheduler's hot loop in its three
// regimes — one saturated collision domain, disjoint neighborhoods reusing
// the medium, and hidden-terminal interference — so CI's bench job records
// the simulator's perf trajectory (BENCH_netsim.json) as the contention
// core evolves. Delivery draws are a coin flip: the point is the
// scheduler's cost, not the PHY's.

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
// draw — a fresh multipath realization per sender, the per-subcarrier SNR
// combine, and the PER lookup — the cost every rate-aware settle and every
// lasthop/exor packet pays. Links are NLOS (Rayleigh) on the 802.11
// profile; the joint draw is a two-sender SourceSync group. Both report
// allocs/op: CI requires the joint draw's, and
// TestDeliveryDrawsAllocateNothing holds both at 0.
func BenchmarkLinkDeliver(b *testing.B) {
	cfg := modem.Profile80211()
	link := testbed.Default(cfg).LinkAtSNR(15, 20)
	rate := modem.StandardRates()[4]
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	delivered := 0
	for b.Loop() {
		if LinkDeliverScaled(rng, link, rate, 1460, 0.8) {
			delivered++
		}
	}
	deliverSink = delivered
}

func BenchmarkJointLinkDeliver(b *testing.B) {
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	links := []testbed.Link{env.LinkAtSNR(15, 20), env.LinkAtSNR(12, 25)}
	rate := modem.StandardRates()[4]
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	delivered := 0
	for b.Loop() {
		if JointLinkDeliverScaled(rng, links, rate, 1460, 0.8) {
			delivered++
		}
	}
	deliverSink = delivered
}

var deliverSink int

// BenchmarkStepScaling drives the indexed scheduler across city sizes —
// 100 through 100k concurrent placed flows in 4-client cells on a square
// grid — and reports the per-event cost. Under the spatial index and the
// event heap the ns/event metric should stay near-flat as the city grows
// (each event touches only grid-nearby flows); the pairwise scans it
// replaced grew superlinearly. The model=rateaware variant reruns the
// 10k city under the PER-curve interference model, so the settle path's
// cached pricing is measured at scale and not just on the two-flow
// hidden-terminal pair above. CI's bench job archives these numbers in
// BENCH_netsim.json and gates regressions against the committed baseline
// via `benchjson -baseline` (and `-require`s them, so a silently dropped
// tier fails the job rather than vanishing from the artifact).
func BenchmarkStepScaling(b *testing.B) {
	cfg := modem.Profile80211()
	rateAware := NewRateAware(cfg, modem.StandardRates(), 1460)
	legacy := LegacyThreshold{CaptureDB: 10}
	cases := []struct {
		name    string
		flows   int
		packets int
		model   InterferenceModel
	}{
		{"flows=100", 100, 4, legacy},
		{"flows=1000", 1000, 4, legacy},
		{"flows=10000", 10000, 4, legacy},
		// Two packets per flow keep the largest city inside CI's time
		// budget while still running ~10x more events than the 10k tier.
		{"flows=100000", 100000, 2, legacy},
		{"flows=10000/model=rateaware", 10000, 4, rateAware},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			const clientsPer = 4
			cells := tc.flows / clientsPer
			side := int(math.Ceil(math.Sqrt(float64(cells))))
			events := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, env := benchSim(int64(5 + i))
				s.CSRangeM = 45
				s.InterferenceRangeM = 150
				s.Model = tc.model
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
				for s.Step() {
					events++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
