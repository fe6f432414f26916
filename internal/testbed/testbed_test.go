package testbed

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dsp"
	"repro/internal/modem"
)

func TestDist(t *testing.T) {
	if d := Dist(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Fatalf("dist %g", d)
	}
}

func TestRandomPointInBounds(t *testing.T) {
	tb := Default(modem.Profile80211())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := tb.RandomPoint(rng)
		if p.X < 0 || p.X > tb.Width || p.Y < 0 || p.Y > tb.Height {
			t.Fatalf("point %v out of bounds", p)
		}
	}
}

func TestLinkSNRDecreasesWithDistance(t *testing.T) {
	tb := Default(modem.Profile80211())
	near := tb.NewLink(nil, Point{0, 0}, Point{2, 0})
	far := tb.NewLink(nil, Point{0, 0}, Point{28, 0})
	if near.SNRdB <= far.SNRdB {
		t.Fatalf("near %.1f dB <= far %.1f dB", near.SNRdB, far.SNRdB)
	}
	// A short indoor link should be comfortably decodable, a cross-floor
	// link marginal: this is what creates the paper's lossy topologies.
	if near.SNRdB < 15 {
		t.Fatalf("2 m link only %.1f dB", near.SNRdB)
	}
	if far.SNRdB > 25 {
		t.Fatalf("28 m link unrealistically strong: %.1f dB", far.SNRdB)
	}
}

func TestLinkLOSFlag(t *testing.T) {
	tb := Default(modem.Profile80211())
	if l := tb.NewLink(nil, Point{0, 0}, Point{3, 0}); !l.LOS {
		t.Fatal("3 m link should be LOS")
	}
	if l := tb.NewLink(nil, Point{0, 0}, Point{20, 0}); l.LOS {
		t.Fatal("20 m link should be NLOS")
	}
}

func TestDrawSubcarrierSNRsStatistics(t *testing.T) {
	tb := Default(modem.Profile80211())
	rng := rand.New(rand.NewSource(2))
	link := tb.LinkAtSNR(10, 10)
	var mean float64
	const draws = 300
	for i := 0; i < draws; i++ {
		bins := link.AppendSubcarrierSNRs(nil, rng)
		mean += dsp.Mean(bins) / draws
	}
	// Average linear SNR across fading should match the link budget (10 dB
	// = 10 linear).
	if mean < 8 || mean > 12 {
		t.Fatalf("mean per-bin SNR %.2f, want ~10", mean)
	}
	// And individual draws must be frequency selective (not all equal).
	bins := link.AppendSubcarrierSNRs(nil, rng)
	if dsp.StdDev(bins) < 0.5 {
		t.Fatalf("no frequency selectivity: std %.3f", dsp.StdDev(bins))
	}
}

func TestPropDelaySamples(t *testing.T) {
	tb := Default(modem.Profile80211())
	l := tb.LinkAtSNR(10, 15) // 15 m -> 50 ns -> 1 sample at 20 MHz
	if d := l.PropDelaySamples(); math.Abs(d-1.0) > 0.01 {
		t.Fatalf("prop delay %.3f samples", d)
	}
}

func TestClassifyRegime(t *testing.T) {
	cases := map[float64]Regime{3: LowSNR, 5.9: LowSNR, 6: MediumSNR, 12: MediumSNR, 12.1: HighSNR, 30: HighSNR}
	for _, snr := range slices.Sorted(maps.Keys(cases)) {
		if got, want := ClassifyRegime(snr), cases[snr]; got != want {
			t.Fatalf("%g dB -> %v, want %v", snr, got, want)
		}
	}
	if LowSNR.String() != "low" || HighSNR.String() != "high" {
		t.Fatal("regime names")
	}
}
