package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/permodel"
	"repro/internal/testbed"
)

// The delivery draw must stay the composition it replaced: a freshly
// allocated multipath channel and frequency response per sender, the
// senders' SNRs summed from zero, the sum scaled (scaleBins), then one
// uniform against the exact PER. The helpers below are that composition,
// kept only as the reference.

// refChannel samples a fresh multipath realization for a link: the
// environment's delay spread, and its K-factor on line-of-sight links
// (Rayleigh otherwise).
func refChannel(rng *rand.Rand, env *testbed.Testbed, link testbed.Link) *channel.Multipath {
	k := 0.0
	if link.LOS {
		k = env.KFactorDB
	}
	return channel.NewIndoor(rng, env.Cfg.SampleRateHz, env.DelaySpreadNs, k)
}

// refSNRs is one sender's per-data-bin SNRs, the way they were drawn: the
// link's average SNR shaped by the realization's frequency response.
func refSNRs(rng *rand.Rand, env *testbed.Testbed, link testbed.Link) []float64 {
	cfg := env.Cfg
	h := refChannel(rng, env, link).FreqResponse(cfg.NFFT)
	lin := dsp.FromDB(link.SNRdB)
	var out []float64
	for _, k := range cfg.DataBins() {
		v := h[cfg.Bin(k)]
		out = append(out, lin*(real(v)*real(v)+imag(v)*imag(v)))
	}
	return out
}

func refDeliver(rng *rand.Rand, env *testbed.Testbed, links []testbed.Link, rate modem.Rate, payload int, snrScale float64) bool {
	var bins []float64
	for i, l := range links {
		sender := refSNRs(rng, env, l)
		if i == 0 {
			bins = make([]float64, len(sender))
		}
		for j, v := range sender {
			bins[j] += v
		}
	}
	scaleBins(bins, snrScale)
	return rng.Float64() >= permodel.PER(rate, payload, bins)
}

// receiverTopology is a topology whose last node hears every link: node i
// reaches node len(links) over links[i].
func receiverTopology(links []testbed.Link) *Topology {
	n := len(links) + 1
	t := &Topology{Links: make([][]testbed.Link, n)}
	for i := range t.Links {
		t.Links[i] = make([]testbed.Link, n)
	}
	for i, l := range links {
		t.Links[i][n-1] = l
	}
	return t
}

// drawLinks places n links, each line-of-sight (Rician) or not (Rayleigh)
// at random, through one Link constructor: LinkAtSNR with average SNRs
// across the PER waterfall, or, with newLink, NewLink between two placed
// points, priced by the environment's link budget and shadowing.
func drawLinks(rng *rand.Rand, env *testbed.Testbed, n int, newLink bool) []testbed.Link {
	links := make([]testbed.Link, n)
	for i := range links {
		dist := env.LOSThresholdM / 2
		if rng.Intn(2) == 1 {
			dist = env.LOSThresholdM * 3
		}
		if newLink {
			// Near links stay within the LOS threshold; far ones reach out
			// to 7x their class distance (126 m), past where even the
			// office floor's budget crosses the PER waterfall.
			d := dist * (0.5 + rng.Float64())
			if dist > env.LOSThresholdM {
				d = dist * (1 + 6*rng.Float64())
			}
			links[i] = env.NewLink(rng, testbed.Point{}, testbed.Point{X: d})
			continue
		}
		links[i] = env.LinkAtSNR(rng.Float64()*30, dist)
	}
	return links
}

// drawEnvs are the environments the reference tests draw in, under both
// profiles: the office floor and the mesh floor built on it.
var drawEnvs = []struct {
	name string
	env  func(*modem.Config) *testbed.Testbed
}{{"default", testbed.Default}, {"mesh", testbed.Mesh}}

func TestSubcarrierSNRsMatchReference(t *testing.T) {
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		for _, de := range drawEnvs {
			for _, newLink := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/newLink=%v", cfg.Name, de.name, newLink)
				env := de.env(cfg)
				setup := rand.New(rand.NewSource(1))
				fast, ref := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
				for i := 0; i < 500; i++ {
					link := drawLinks(setup, env, 1, newLink)[0]
					got := link.AppendSubcarrierSNRs(nil, fast)
					want := refSNRs(ref, env, link)
					if len(got) != len(want) {
						t.Fatalf("%s: %d bins, reference %d", name, len(got), len(want))
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s draw %d (LOS %v) bin %d: %v, reference %v", name, i, link.LOS, j, got[j], want[j])
						}
					}
				}
				if a, b := fast.Int63(), ref.Int63(); a != b {
					t.Fatalf("%s: RNG positions diverged", name)
				}
			}
		}
	}
}

func TestDeliveryDrawsMatchReference(t *testing.T) {
	rates := modem.StandardRates()
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		for _, de := range drawEnvs {
			for _, newLink := range []bool{false, true} {
				env := de.env(cfg)
				for _, scale := range []float64{1, 0.3} {
					for _, senders := range []int{0, 1, 2, 4} {
						name := fmt.Sprintf("%s/%s/newLink=%v/scale=%g/senders=%d", cfg.Name, de.name, newLink, scale, senders)
						setup := rand.New(rand.NewSource(int64(senders) + 1))
						fast, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
						group := make([]int, senders)
						for i := range group {
							group[i] = i
						}
						delivered := 0
						for i := 0; i < 400; i++ {
							links := drawLinks(setup, env, senders, newLink)
							rate := rates[setup.Intn(len(rates))]
							payload := []int{40, 1460}[setup.Intn(2)]
							got := DrawDelivery(fast, links, rate, payload, scale)
							want := refDeliver(ref, env, links, rate, payload, scale)
							if got != want {
								t.Fatalf("%s draw %d: verdict %v, reference %v", name, i, got, want)
							}
							if got {
								delivered++
							}
							// The topology's draws are the same draw, undegraded.
							topo := receiverTopology(links)
							got = topo.DeliverJoint(fast, group, senders, rate, payload)
							want = refDeliver(ref, env, links, rate, payload, 1)
							if got != want {
								t.Fatalf("%s draw %d: DeliverJoint verdict %v, reference %v", name, i, got, want)
							}
							if senders == 1 {
								got = topo.Deliver(fast, 0, 1, rate, payload)
								want = refDeliver(ref, env, links, rate, payload, 1)
								if got != want {
									t.Fatalf("%s draw %d: Deliver verdict %v, reference %v", name, i, got, want)
								}
							}
							if a, b := fast.Int63(), ref.Int63(); a != b {
								t.Fatalf("%s draw %d: RNG positions diverged", name, i)
							}
						}
						// Both verdicts must occur, or the comparison proves little.
						if senders > 0 && (delivered == 0 || delivered == 400) {
							t.Fatalf("%s: %d of 400 delivered; want a mix", name, delivered)
						}
					}
				}
			}
		}
	}
}

func TestDeliveryDrawsAllocateNothing(t *testing.T) {
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	rng := rand.New(rand.NewSource(1))
	links := []testbed.Link{env.LinkAtSNR(15, 3), env.LinkAtSNR(12, 20)}
	rate := modem.StandardRates()[4]
	for _, scale := range []float64{1, 0.3} {
		if n := testing.AllocsPerRun(200, func() { DrawDelivery(rng, links[1:], rate, 1460, scale) }); n != 0 {
			t.Errorf("DrawDelivery, one link (scale %g): %v allocs per draw, want 0", scale, n)
		}
		if n := testing.AllocsPerRun(200, func() { DrawDelivery(rng, links, rate, 1460, scale) }); n != 0 {
			t.Errorf("DrawDelivery, two links (scale %g): %v allocs per draw, want 0", scale, n)
		}
	}
	topo := receiverTopology(links)
	if n := testing.AllocsPerRun(200, func() { topo.Deliver(rng, 1, 2, rate, 1460) }); n != 0 {
		t.Errorf("Topology.Deliver: %v allocs per draw, want 0", n)
	}
	for _, group := range [][]int{{0}, {0, 1}} {
		if n := testing.AllocsPerRun(200, func() { topo.DeliverJoint(rng, group, 2, rate, 1460) }); n != 0 {
			t.Errorf("Topology.DeliverJoint, %d senders: %v allocs per draw, want 0", len(group), n)
		}
	}
}
