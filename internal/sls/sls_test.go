package sls

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
)

// hWithDelay builds a channel estimate that includes a timing offset of d
// samples over the given multipath channel.
func hWithDelay(cfg *modem.Config, m *channel.Multipath, d float64) []complex128 {
	h := m.FreqResponse(cfg.NFFT)
	dsp.PhaseRampDelay(h, d)
	// Zero the unused bins like a real channel estimator would.
	used := map[int]bool{}
	for _, k := range cfg.UsedBins() {
		used[cfg.Bin(k)] = true
	}
	for b := range h {
		if !used[b] {
			h[b] = 0
		}
	}
	return h
}

func TestEstimateDelayFlatChannel(t *testing.T) {
	cfg := modem.ProfileWiGLAN()
	for _, d := range []float64{0, 0.25, 1, 2.5, -1.5, 5} {
		h := hWithDelay(cfg, channel.Flat(), d)
		got := EstimateDelay(cfg, h)
		if math.Abs(got-d) > 0.01 {
			t.Fatalf("d=%g: estimated %g", d, got)
		}
	}
}

func TestEstimateDelayFlatChannel80211(t *testing.T) {
	cfg := modem.Profile80211()
	for _, d := range []float64{0, 0.5, 3, -2} {
		h := hWithDelay(cfg, channel.Flat(), d)
		got := EstimateDelay(cfg, h)
		if math.Abs(got-d) > 0.01 {
			t.Fatalf("d=%g: estimated %g", d, got)
		}
	}
}

func TestEstimateDelayMultipathUnbiased(t *testing.T) {
	// Over an ensemble of multipath channels the estimator should track the
	// induced delay plus the (positive) channel group-delay centroid; the
	// *difference* between two induced delays must be unbiased, since that
	// difference is what the misalignment feedback uses.
	cfg := modem.ProfileWiGLAN()
	rng := rand.New(rand.NewSource(1))
	const trials = 200
	var diffs []float64
	for i := 0; i < trials; i++ {
		m := channel.NewIndoor(rng, cfg.SampleRateHz, 30, 0)
		d1, d2 := 2.0, 5.5
		e1 := EstimateDelay(cfg, hWithDelay(cfg, m, d1))
		e2 := EstimateDelay(cfg, hWithDelay(cfg, m, d2))
		diffs = append(diffs, (e2-e1)-(d2-d1))
	}
	if bias := dsp.Mean(diffs); math.Abs(bias) > 0.05 {
		t.Fatalf("delay-difference bias %.3f samples", bias)
	}
	// Unwrap decisions near +-pi differ slightly between the two ramps,
	// adding ~0.1-sample noise; that is ~1 ns at 128 MHz, well inside the
	// paper's reported accuracy.
	if spread := dsp.StdDev(diffs); spread > 0.3 {
		t.Fatalf("same-channel delay-difference spread %.3f samples", spread)
	}
}

func TestMisalignmentTwoSenders(t *testing.T) {
	cfg := modem.ProfileWiGLAN()
	rng := rand.New(rand.NewSource(2))
	mLead := channel.NewIndoor(rng, cfg.SampleRateHz, 20, 6)
	mCo := channel.NewIndoor(rng, cfg.SampleRateHz, 20, 6)
	// Co-sender 3.25 samples later than lead; channel centroids differ so
	// allow a tolerance of a sample or so (that is the physical error floor
	// the paper's Fig. 12 reports as ~2.5 samples at 128 MHz).
	hL := hWithDelay(cfg, mLead, 1.0)
	hC := hWithDelay(cfg, mCo, 4.25)
	got := Misalignment(cfg, hL, hC)
	if math.Abs(got-3.25) > 1.5 {
		t.Fatalf("misalignment %.2f, want ~3.25", got)
	}
}

func TestOneWayDelayAlgebra(t *testing.T) {
	// Construct a synthetic round trip: propagation 7.3 samples each way.
	prop := 7.3
	p := ProbeExchange{
		DetectRx:    4.2,
		TurnRx:      100,
		DetectTx:    3.1,
		ExtraWaitRx: 50,
	}
	p.RoundTrip = prop + p.DetectRx + p.TurnRx + p.ExtraWaitRx + prop + p.DetectTx
	if got := p.OneWayDelay(); math.Abs(got-prop) > 1e-9 {
		t.Fatalf("one-way %.3f, want %.3f", got, prop)
	}
}

// One shared clock in whole samples, so every sum is exact: the lead
// starts its sync header at sent, and its data leaves at the global
// reference (the header's end plus SIFS) and reaches the receiver
// leadToRx later. Each co-sender heard the header d after sent and
// waits w = leadToRx - coToRx past the reference (paper §4.3), so it
// has sifs - d + w samples from the header's end to its slot.
const sent, header, sifs, leadToRx = 100.0, 400.0, 1280.0, 25.0

var scheduleCases = []struct {
	name      string
	d, coToRx float64 // lead -> co-sender and co-sender -> receiver
	late      float64 // how much later than heard the co-sender dates the arrival
	turn      float64
	wantOK    bool
}{
	{name: "nearer the receiver than the lead", d: 17, coToRx: 9, turn: 400, wantOK: true},
	{name: "farther from the receiver than the lead", d: 6, coToRx: 40, turn: 400, wantOK: true},
	{name: "turnaround ends at the slot", d: 17, coToRx: 9, turn: sifs - 17 + 16, wantOK: true},
	{name: "turnaround misses the slot by a sample", d: 17, coToRx: 9, turn: sifs - 17 + 17, wantOK: false},
	// A late date moves the slot but not when the header was heard.
	{name: "late date, turnaround counted from hearing", d: 17, coToRx: 9, late: 30, turn: sifs - 17 + 16 + 30, wantOK: true},
}

// TestComputeSchedule checks that a co-sender makes its slot exactly when
// its turnaround ends by then, and abstains otherwise.
func TestComputeSchedule(t *testing.T) {
	for _, tt := range scheduleCases {
		t.Run(tt.name, func(t *testing.T) {
			heard := sent + tt.d
			_, ok := CoSenderStart(heard, heard+tt.late, tt.d, leadToRx-tt.coToRx, tt.turn, header, sifs)
			if ok != tt.wantOK {
				t.Errorf("ok = %v, want %v", ok, tt.wantOK)
			}
		})
	}
}

// TestScheduleAlignsAtReceiver is the end-to-end algebra check of §4.3:
// with exact measurements, the co-sender's data and the lead's data reach
// the receiver at the same instant.
func TestScheduleAlignsAtReceiver(t *testing.T) {
	for _, tt := range scheduleCases {
		t.Run(tt.name, func(t *testing.T) {
			heard := sent + tt.d
			start, _ := CoSenderStart(heard, heard+tt.late, tt.d, leadToRx-tt.coToRx, tt.turn, header, sifs)
			// Exactly aligned with the lead's data, or late by exactly the late date.
			if got, want := start+tt.coToRx, sent+header+sifs+leadToRx+tt.late; got != want {
				t.Errorf("co-sender's data reaches the receiver at %v, want %v", got, want)
			}
		})
	}
}

func TestMultiReceiverWaitsSingleReceiver(t *testing.T) {
	// One receiver: perfect alignment achievable; w = T0 - t_i.
	w, m, err := MultiReceiverWaits([]float64{25}, [][]float64{{9}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-16) > 1e-6 || m > 1e-6 {
		t.Fatalf("w=%v m=%g", w, m)
	}
}

func TestMultiReceiverWaitsFig8(t *testing.T) {
	// Paper Fig. 8: to sync at Rx1 the co-sender must send early; at Rx2
	// late; no wait aligns both. Lead delays T = [5, 1]; co delays
	// t = [1, 5]. Misalignment rows: w + 1 - 5 = w - 4 (rx1), w + 5 - 1 =
	// w + 4 (rx2). Optimal w = 0, residual 4.
	w, m, err := MultiReceiverWaits([]float64{5, 1}, [][]float64{{1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]) > 1e-6 {
		t.Fatalf("w = %v, want 0", w)
	}
	if math.Abs(m-4) > 1e-6 {
		t.Fatalf("m = %g, want 4", m)
	}
	if CPIncreaseSamples(m) != 4 {
		t.Fatalf("cp increase %d", CPIncreaseSamples(m))
	}
}

func TestMultiReceiverWaitsPairwiseCoSenders(t *testing.T) {
	// Two co-senders, one receiver: both can align exactly with the lead
	// and with each other.
	w, m, err := MultiReceiverWaits([]float64{10}, [][]float64{{4}, {13}})
	if err != nil {
		t.Fatal(err)
	}
	if m > 1e-6 {
		t.Fatalf("misalignment %g", m)
	}
	if math.Abs(w[0]-6) > 1e-6 || math.Abs(w[1]+3) > 1e-6 {
		t.Fatalf("w = %v", w)
	}
}

func TestCPIncreaseSamples(t *testing.T) {
	if CPIncreaseSamples(0) != 0 || CPIncreaseSamples(-1) != 0 {
		t.Fatal("nonpositive misalignment needs no CP")
	}
	if CPIncreaseSamples(0.2) != 1 {
		t.Fatal("fractional misalignment rounds up")
	}
	if CPIncreaseSamples(3.0) != 3 {
		t.Fatalf("got %d", CPIncreaseSamples(3.0))
	}
}

func TestTrackWaitConverges(t *testing.T) {
	// Iterating the feedback loop with a noisy misalignment measurement
	// must converge to zero misalignment.
	rng := rand.New(rand.NewSource(3))
	trueOffset := 5.0 // co-sender currently 5 samples late
	w := 0.0
	for i := 0; i < 60; i++ {
		measured := trueOffset + w + rng.NormFloat64()*0.3
		w = TrackWait(w, measured, 0.5)
	}
	if math.Abs(trueOffset+w) > 0.5 {
		t.Fatalf("residual misalignment %.2f", trueOffset+w)
	}
}

func TestSIFSSamples(t *testing.T) {
	if got := SIFSSamples(modem.ProfileWiGLAN()); math.Abs(got-1280) > 1e-9 {
		t.Fatalf("SIFS = %g samples", got)
	}
	if got := SIFSSamples(modem.Profile80211()); math.Abs(got-200) > 1e-9 {
		t.Fatalf("SIFS = %g samples", got)
	}
}

func TestEstimateDelayWholeBandAblation(t *testing.T) {
	// On a flat channel the whole-band fit and the windowed fit agree.
	cfg := modem.ProfileWiGLAN()
	h := hWithDelay(cfg, channel.Flat(), 2.0)
	win := EstimateDelay(cfg, h)
	whole := EstimateDelayWindowed(cfg, h, 1e12)
	if math.Abs(win-whole) > 0.05 {
		t.Fatalf("windowed %.3f vs whole-band %.3f", win, whole)
	}
}
