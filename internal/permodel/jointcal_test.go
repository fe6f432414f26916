package permodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/phy"
)

// TestJointModelMatchesWaveformPHY cross-validates the packet-level joint
// model (per-subcarrier SNR sum -> PER) against the actual waveform path:
// real joint frames with two synchronized senders, Alamouti coding, joint
// channel estimation and Viterbi decoding. The model and the waveform must
// agree on which side of the waterfall each operating point sits.
func TestJointModelMatchesWaveformPHY(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration is slow")
	}
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	const payload = 200

	// Analytic joint waterfall midpoint: per-sender SNR at which the joint
	// (2x power) transmission crosses PER 0.5 on flat channels.
	perSender := func(snrDB float64) float64 {
		bins := make([]float64, cfg.NumData())
		lin := dsp.FromDB(snrDB)
		for i := range bins {
			bins[i] = lin
		}
		return PER(rate, payload, jointSNR([][]float64{bins, bins}))
	}
	lo, hi := -5.0, 30.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if perSender(mid) > 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	mid := (lo + hi) / 2

	measure := func(snrDB float64, trials int) float64 {
		rng := rand.New(rand.NewSource(7))
		fails := 0
		for i := 0; i < trials; i++ {
			sim := jointCalSim(rng, cfg, rate, payload, snrDB)
			pay := make([]byte, payload)
			rng.Read(pay)
			run, err := sim.Run(pay)
			if err != nil || !run.CoJoined[0] {
				fails++
				continue
			}
			rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3}
			res, err := rx.Receive(run.RxWave, 0)
			if err != nil || !res.OK {
				fails++
			}
		}
		return float64(fails) / float64(trials)
	}

	below := measure(mid-4, 12)
	above := measure(mid+5, 12)
	if below < 0.5 {
		t.Fatalf("waveform joint PER %.2f at model-mid-4dB (%.1f dB), want high", below, mid-4)
	}
	if above > 0.25 {
		t.Fatalf("waveform joint PER %.2f at model-mid+5dB (%.1f dB), want low", above, mid+5)
	}
}

// jointCalSim builds a two-sender joint transmission with equal per-sender
// SNR at the receiver over flat channels (matching the analytic setup).
func jointCalSim(rng *rand.Rand, cfg *modem.Config, rate modem.Rate, payload int, snrDB float64) *phy.JointSimConfig {
	p := phy.JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: payload, Seed: 0x5d, NumCo: 1, LeadID: 1, PacketID: 8,
	}
	sig := dsp.MeanPower(cfg.LTSTime())
	noise := channel.NoisePowerForSNR(sig, snrDB)
	// The header must survive for the exchange to happen at all; give the
	// inter-sender link and the co-sender's receiver comfortable margins so
	// the measurement isolates the data path.
	return &phy.JointSimConfig{
		P:        p,
		LeadToCo: []phy.Link{{Gain: 1, Delay: 2}},
		LeadToRx: phy.Link{Gain: 1, Delay: 4},
		CoToRx:   []phy.Link{{Gain: 1, Delay: 3}},
		Co: []phy.CoSenderSim{{
			Turnaround:       120,
			EstDelayFromLead: 2,
			TxOffset:         1,
			NoisePower:       noise / 100,
			FFTBackoff:       3,
		}},
		NoiseRx: noise,
		Rng:     rng,
	}
}

// TestJointModelPowerGainConsistent verifies the model's 3 dB two-sender
// shift: the joint waterfall midpoint sits ~3 dB below the single-sender
// midpoint in per-sender SNR terms.
func TestJointModelPowerGainConsistent(t *testing.T) {
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	single := SNRForPER(cfg, rate, 200, 0.5)
	joint := func() float64 {
		lo, hi := -5.0, 30.0
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			bins := make([]float64, cfg.NumData())
			lin := dsp.FromDB(mid)
			for j := range bins {
				bins[j] = lin
			}
			if PER(rate, 200, jointSNR([][]float64{bins, bins})) > 0.5 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}()
	if d := single - joint; math.Abs(d-3.01) > 0.1 {
		t.Fatalf("joint midpoint %.2f dB below single, want ~3.01", d)
	}
}
