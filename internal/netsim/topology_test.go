package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/modem"
	"repro/internal/permodel"
	"repro/internal/testbed"
)

// The delivery draws must stay the composition they replaced: a freshly
// allocated multipath channel and frequency response per sender, the
// senders combined by permodel.JointSNR, the sum scaled (scaleBins), then
// PER. The helpers below are that composition, kept only as the
// reference.

// refSNRs is one sender's per-data-bin SNRs, the way they were drawn.
func refSNRs(rng *rand.Rand, cfg *modem.Config, link testbed.Link) []float64 {
	return permodel.SubcarrierSNRs(cfg, link.DrawChannel(rng).FreqResponse(cfg.NFFT), link.SNRdB)
}

func refLinkDeliverScaled(rng *rand.Rand, cfg *modem.Config, link testbed.Link, rate modem.Rate, payload int, snrScale float64) bool {
	bins := refSNRs(rng, cfg, link)
	scaleBins(bins, snrScale)
	return rng.Float64() >= permodel.PER(rate, payload, bins)
}

func refJointLinkDeliverScaled(rng *rand.Rand, cfg *modem.Config, links []testbed.Link, rate modem.Rate, payload int, snrScale float64) bool {
	per := make([][]float64, len(links))
	for i, l := range links {
		per[i] = refSNRs(rng, cfg, l)
	}
	bins := permodel.JointSNR(per)
	scaleBins(bins, snrScale)
	return rng.Float64() >= permodel.PER(rate, payload, bins)
}

// drawLinks places n links with average SNRs across the PER waterfall,
// each line-of-sight (Rician) or not (Rayleigh) at random.
func drawLinks(rng *rand.Rand, env *testbed.Testbed, n int) []testbed.Link {
	links := make([]testbed.Link, n)
	for i := range links {
		dist := env.LOSThresholdM / 2
		if rng.Intn(2) == 1 {
			dist = env.LOSThresholdM * 3
		}
		links[i] = env.LinkAtSNR(rng.Float64()*30, dist)
	}
	return links
}

func TestSubcarrierSNRsMatchReference(t *testing.T) {
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		env := testbed.Default(cfg)
		setup := rand.New(rand.NewSource(1))
		fast, ref := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
		for i := 0; i < 500; i++ {
			link := drawLinks(setup, env, 1)[0]
			got := link.AppendSubcarrierSNRs(nil, fast)
			want := refSNRs(ref, cfg, link)
			if len(got) != len(want) {
				t.Fatalf("%s: %d bins, reference %d", cfg.Name, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s draw %d (LOS %v) bin %d: %v, reference %v", cfg.Name, i, link.LOS, j, got[j], want[j])
				}
			}
		}
		if a, b := fast.Int63(), ref.Int63(); a != b {
			t.Fatalf("%s: RNG positions diverged", cfg.Name)
		}
	}
}

func TestDeliveryDrawsMatchReference(t *testing.T) {
	rates := modem.StandardRates()
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		env := testbed.Default(cfg)
		for _, scale := range []float64{1, 0.3} {
			for _, senders := range []int{0, 1, 2, 4} {
				name := fmt.Sprintf("%s/scale=%g/senders=%d", cfg.Name, scale, senders)
				setup := rand.New(rand.NewSource(int64(senders) + 1))
				fast, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
				delivered := 0
				for i := 0; i < 400; i++ {
					links := drawLinks(setup, env, senders)
					rate := rates[setup.Intn(len(rates))]
					payload := []int{40, 1460}[setup.Intn(2)]
					got := JointLinkDeliverScaled(fast, links, rate, payload, scale)
					want := refJointLinkDeliverScaled(ref, cfg, links, rate, payload, scale)
					if got != want {
						t.Fatalf("%s draw %d: joint verdict %v, reference %v", name, i, got, want)
					}
					if senders == 1 {
						got = LinkDeliverScaled(fast, links[0], rate, payload, scale)
						want = refLinkDeliverScaled(ref, cfg, links[0], rate, payload, scale)
						if got != want {
							t.Fatalf("%s draw %d: single verdict %v, reference %v", name, i, got, want)
						}
					}
					if got {
						delivered++
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

func TestDeliveryDrawsAllocateNothing(t *testing.T) {
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	rng := rand.New(rand.NewSource(1))
	links := []testbed.Link{env.LinkAtSNR(15, 3), env.LinkAtSNR(12, 20)}
	rate := modem.StandardRates()[4]
	for _, scale := range []float64{1, 0.3} {
		if n := testing.AllocsPerRun(200, func() { LinkDeliverScaled(rng, links[1], rate, 1460, scale) }); n != 0 {
			t.Errorf("LinkDeliverScaled (scale %g): %v allocs per draw, want 0", scale, n)
		}
		if n := testing.AllocsPerRun(200, func() { JointLinkDeliverScaled(rng, links, rate, 1460, scale) }); n != 0 {
			t.Errorf("JointLinkDeliverScaled (scale %g): %v allocs per draw, want 0", scale, n)
		}
	}
}
