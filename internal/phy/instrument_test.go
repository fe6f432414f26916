package phy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
)

// calibSim builds a WiGLAN-profile calibration scenario at the given SNR.
func calibSim(rng *rand.Rand, snrDB float64, baseline bool) *JointSimConfig {
	cfg := modem.ProfileWiGLAN()
	p := JointFrameParams{
		Cfg: cfg, Rate: modem.Rate{Mod: modem.QPSK, Code: modem.Rate12},
		DataCP: cfg.CPLen, PayloadLen: 40, Seed: 0x5d, NumCo: 1,
		LeadID: 1, PacketID: 7,
	}
	mk := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, 30, 6) }
	// Per-sample signal power of an OFDM symbol in this profile.
	sigPower := dsp.MeanPower(ceSymbolWave(cfg, cfg.CPLen))
	noise := channel.NoisePowerForSNR(sigPower, snrDB)
	return &JointSimConfig{
		P:        p,
		LeadToCo: []Link{{Gain: 1, Delay: 4.2, Path: mk()}},
		LeadToRx: Link{Gain: 1, Delay: 8.5, Path: mk()},
		CoToRx:   []Link{{Gain: 1, Delay: 3.1, Path: mk()}},
		Co: []CoSenderSim{{
			Turnaround:       800,
			EstDelayFromLead: 4.2,
			TxOffset:         8.5 - 3.1,
			NoisePower:       noise,
			FFTBackoff:       3,
			BaselineSync:     baseline,
		}},
		NoiseRx: noise,
		Rng:     rng,
	}
}

func TestCalibrationFrameGroundTruth(t *testing.T) {
	// The calibration series' mean must agree with the single-shot estimate
	// to within the single-shot noise, and the series must have low spread
	// at high SNR.
	rng := rand.New(rand.NewSource(1))
	sim := calibSim(rng, 25, false)
	run, err := sim.RunCalibration(60)
	if err != nil {
		t.Fatal(err)
	}
	if !run.CoJoined[0] {
		t.Fatal("co-sender did not join")
	}
	rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
	res, err := rx.ReceiveCalibration(sim.P, run.RxWave, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 60 {
		t.Fatalf("series length %d", len(res.Series))
	}
	if spread := dsp.StdDev(res.Series); spread > 1.0 {
		t.Fatalf("series spread %.3f samples at 25 dB", spread)
	}
	if math.Abs(res.SingleShot-res.GroundTruth) > 1.0 {
		t.Fatalf("single shot %.3f vs truth %.3f", res.SingleShot, res.GroundTruth)
	}
	// The ground truth should itself be close to the simulator's exact
	// misalignment (within the multipath-centroid ambiguity).
	if math.Abs(res.GroundTruth-run.TrueMisalign[0]) > 2.0 {
		t.Fatalf("truth %.3f vs sim %.3f", res.GroundTruth, run.TrueMisalign[0])
	}
	if res.MeasuredSNRdB < 15 || res.MeasuredSNRdB > 35 {
		t.Fatalf("measured SNR %.1f dB, expected ~25", res.MeasuredSNRdB)
	}
}

func TestSyncErrorSmallWithSourceSync(t *testing.T) {
	// SourceSync's single-shot estimation error (vs the repetition ground
	// truth) should be within a few samples at moderate SNR — the paper's
	// Fig. 12 claim (20 ns = 2.6 samples at 128 MHz).
	var errs []float64
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(10 + trial)))
		sim := calibSim(rng, 18, false)
		run, err := sim.RunCalibration(40)
		if err != nil {
			t.Fatal(err)
		}
		if !run.CoJoined[0] {
			continue
		}
		rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
		res, err := rx.ReceiveCalibration(sim.P, run.RxWave, 0, 40)
		if err != nil {
			continue
		}
		errs = append(errs, math.Abs(res.SingleShot-res.GroundTruth))
	}
	if len(errs) < 4 {
		t.Fatalf("only %d usable trials", len(errs))
	}
	for _, e := range errs {
		if e > 3 {
			t.Fatalf("sync estimation error %.2f samples (%.0f ns)", e, e/128e6*1e9)
		}
	}
}

func TestBaselineMisalignmentLargerThanSourceSync(t *testing.T) {
	// The Fig. 13 premise: without compensation, the co-sender's arrival
	// misalignment is dominated by detection jitter + uncompensated delays,
	// far larger than SourceSync's.
	absMis := func(baseline bool, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		sim := calibSim(rng, 22, baseline)
		run, err := sim.RunCalibration(10)
		if err != nil || !run.CoJoined[0] {
			t.Fatalf("run failed: %v", err)
		}
		return math.Abs(run.TrueMisalign[0])
	}
	var ssMax, blMax, blSum float64
	const n = 6
	for s := int64(0); s < n; s++ {
		if v := absMis(false, 100+s); v > ssMax {
			ssMax = v
		}
		v := absMis(true, 200+s)
		blSum += v
		if v > blMax {
			blMax = v
		}
	}
	if ssMax > 3 {
		t.Fatalf("SourceSync worst misalignment %.2f samples", ssMax)
	}
	// The baseline's jitter is uniform, so individual frames can be lucky;
	// its worst case (which dictates the CP budget) must be far larger.
	if blMax < 10 {
		t.Fatalf("baseline worst misalignment %.2f samples — should be large", blMax)
	}
	if blSum/n < 2*ssMax {
		t.Fatalf("baseline mean %.2f not clearly above SourceSync worst %.2f", blSum/n, ssMax)
	}
}
