package jce

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
)

func TestPhaseTrackerLinearTrajectory(t *testing.T) {
	p := NewPhaseTracker()
	slope := 0.3 // rad/symbol
	for sym := 0; sym < 20; sym += 2 {
		p.Update(sym, dsp.WrapPhase(slope*float64(sym)))
	}
	for sym := 14; sym < 26; sym++ {
		got := p.At(sym)
		want := slope * float64(sym)
		if math.Abs(dsp.WrapPhase(got-want)) > 1e-6 {
			t.Fatalf("sym %d: predicted %.4f want %.4f", sym, got, want)
		}
	}
	if cfo := p.ResidualCFO(); math.Abs(cfo-slope/(2*math.Pi)) > 1e-9 {
		t.Fatalf("residual cfo %g", cfo)
	}
}

func TestPhaseTrackerUnwrapsAcrossPi(t *testing.T) {
	// A fast trajectory that wraps several times must still be tracked, as
	// long as per-observation increments stay below pi.
	p := NewPhaseTracker()
	slope := 1.2
	for sym := 0; sym < 40; sym += 2 {
		p.Update(sym, dsp.WrapPhase(slope*float64(sym)))
	}
	got := p.At(40)
	want := slope * 40
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("unwrapped prediction %.3f want %.3f", got, want)
	}
}

func TestPhaseTrackerNoisyObservations(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := NewPhaseTracker()
	slope := 0.1
	for sym := 0; sym < 60; sym += 3 {
		p.Update(sym, dsp.WrapPhase(slope*float64(sym)+r.NormFloat64()*0.05))
	}
	got := p.At(60)
	if math.Abs(got-slope*60) > 0.3 {
		t.Fatalf("noisy tracking off by %.3f rad", got-slope*60)
	}
}

func TestEstimatorPilotOwnerRoundRobin(t *testing.T) {
	e := NewEstimator(modem.Profile80211(), 3)
	owners := []int{0, 1, 2, 0, 1, 2}
	for sym, want := range owners {
		if got := e.PilotOwner(sym); got != want {
			t.Fatalf("sym %d: owner %d, want %d", sym, got, want)
		}
	}
}

// buildPilotSymbol synthesizes the received pilot bins for one data symbol
// where `owner` transmits pilots through channel h rotated by theta.
func buildPilotSymbol(cfg *modem.Config, h []complex128, symIdx int, theta float64, noise float64, rng *rand.Rand) []complex128 {
	bins := make([]complex128, cfg.NFFT)
	rot := cmplx.Exp(complex(0, theta))
	for p, k := range cfg.PilotBins() {
		b := cfg.Bin(k)
		bins[b] = h[b] * cfg.PilotValue(p, symIdx) * rot
		if noise > 0 {
			bins[b] += complex(rng.NormFloat64()*noise, rng.NormFloat64()*noise)
		}
	}
	return bins
}

func TestEstimatorTracksTwoSenderPhases(t *testing.T) {
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(2))
	e := NewEstimator(cfg, 2)

	h0 := channel.NewIndoor(rng, cfg.SampleRateHz, 50, 3).FreqResponse(cfg.NFFT)
	h1 := channel.NewIndoor(rng, cfg.SampleRateHz, 50, 3).FreqResponse(cfg.NFFT)
	e.SetChannel(0, h0)
	e.SetChannel(1, h1)

	// Distinct residual CFOs: 0.02 and -0.05 rad/symbol.
	s0, s1 := 0.02, -0.05
	for sym := 0; sym < 40; sym++ {
		owner := e.PilotOwner(sym)
		var bins []complex128
		if owner == 0 {
			bins = buildPilotSymbol(cfg, h0, sym, s0*float64(sym), 0.01, rng)
		} else {
			bins = buildPilotSymbol(cfg, h1, sym, s1*float64(sym), 0.01, rng)
		}
		e.UpdatePilots(sym, bins)
	}

	// Predicted channels at symbol 41 must match the true rotations.
	sym := 41
	for _, k := range cfg.DataBins()[:8] {
		b := cfg.Bin(k)
		want0 := h0[b] * cmplx.Exp(complex(0, s0*float64(sym)))
		want1 := h1[b] * cmplx.Exp(complex(0, s1*float64(sym)))
		got0 := e.ChannelAt(0, sym, b)
		got1 := e.ChannelAt(1, sym, b)
		if cmplx.Abs(got0-want0) > 0.15*cmplx.Abs(want0)+0.02 {
			t.Fatalf("sender0 bin %d: got %v want %v", k, got0, want0)
		}
		if cmplx.Abs(got1-want1) > 0.15*cmplx.Abs(want1)+0.02 {
			t.Fatalf("sender1 bin %d: got %v want %v", k, got1, want1)
		}
	}
	if math.Abs(e.ResidualCFO(0)-s0/(2*math.Pi)) > 0.002 {
		t.Fatalf("sender0 residual cfo %g", e.ResidualCFO(0))
	}
	if math.Abs(e.ResidualCFO(1)-s1/(2*math.Pi)) > 0.002 {
		t.Fatalf("sender1 residual cfo %g", e.ResidualCFO(1))
	}
}

func TestEstimatorAbsentSender(t *testing.T) {
	cfg := modem.Profile80211()
	e := NewEstimator(cfg, 2)
	h := channel.Flat().FreqResponse(cfg.NFFT)
	e.SetChannel(0, h)
	e.MarkAbsent(1)
	if e.Active(1) {
		t.Fatal("sender 1 should be absent")
	}
	b := cfg.Bin(1)
	if e.ChannelAt(1, 0, b) != 0 {
		t.Fatal("absent sender must have zero channel")
	}
	// UpdatePilots on the absent sender's symbols is a no-op.
	bins := make([]complex128, cfg.NFFT)
	e.UpdatePilots(1, bins) // owner 1, absent
	dst := e.SenderChannels(nil, 0, b)
	if len(dst) != 2 || dst[0] != h[b] || dst[1] != 0 {
		t.Fatalf("SenderChannels = %v", dst)
	}
}

func TestEstimateFromCE(t *testing.T) {
	// Generate two clean CE (LTS) symbols through a channel and verify the
	// estimate matches the channel's frequency response on used bins.
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(3))
	m := channel.NewIndoor(rng, cfg.SampleRateHz, 40, 0)
	lts := cfg.LTSTime()
	// Two repetitions with cyclic prefix behavior: prepend the tail of the
	// LTS so the channel's memory sees a cyclic signal, as in a real frame.
	guard := 16
	sig := append([]complex128{}, lts[len(lts)-guard:]...)
	sig = append(sig, lts...)
	sig = append(sig, lts...)
	out := m.Apply(sig)
	rx1 := out[guard : guard+cfg.NFFT]
	rx2 := out[guard+cfg.NFFT : guard+2*cfg.NFFT]

	e := NewEstimator(cfg, 1)
	e.EstimateFromCE(0, rx1, rx2)
	hTrue := m.FreqResponse(cfg.NFFT)
	for _, k := range cfg.UsedBins() {
		b := cfg.Bin(k)
		if cmplx.Abs(e.Channel(0)[b]-hTrue[b]) > 1e-6 {
			t.Fatalf("bin %d: got %v want %v", k, e.Channel(0)[b], hTrue[b])
		}
	}
}
