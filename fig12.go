package sourcesync

import (
	"math"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/modem"
	"repro/internal/phy"
)

// Fig12Options configures the synchronization-error experiment (§8.1.1):
// pairs of transmitters synchronize via SourceSync at a receiver; each
// calibration frame yields a single-shot misalignment estimate and a
// repetition-averaged ground truth, and the experiment reports percentiles
// of their difference versus SNR.
type Fig12Options struct {
	SNRsdB []float64 // per-sender SNR operating points
	Trials int       // frames per SNR point
	Reps   int       // training repetitions per calibration frame
}

// DefaultFig12Options returns the parameters used by ssbench.
func DefaultFig12Options() Fig12Options {
	return Fig12Options{
		SNRsdB: []float64{4, 6, 9, 12, 15, 18, 22, 25},
		Trials: 30,
		Reps:   60,
	}
}

// Fig12Point is one SNR operating point's result.
type Fig12Point struct {
	SNRdB   float64
	P50Ns   float64 // median synchronization estimation error
	P95Ns   float64 // 95th percentile
	Usable  int     // frames where the co-sender joined and decode succeeded
	Dropped int
}

// fig12Trial is one calibration frame's outcome.
type fig12Trial struct {
	errNs float64
	ok    bool
}

// RunFig12 regenerates Figure 12: 95th-percentile synchronization error
// versus SNR on the WiGLAN-like profile. Trials fan out across the engine's
// worker pool; each draws its RNG from (ec.Seed, SNR index, trial index),
// so the output is identical at every worker count.
func RunFig12(ec engine.Config, o Fig12Options) []Fig12Point {
	cfg := ProfileWiGLAN()
	nsToSample := cfg.SampleRateHz / 1e9

	grid := engine.Grid(ec, len(o.SNRsdB), o.Trials, func(pt, trial int, rng *rand.Rand) fig12Trial {
		sim := fig12Sim(rng, cfg, o.SNRsdB[pt])
		run, err := sim.RunCalibration(o.Reps)
		if err != nil || !run.CoJoined[0] {
			return fig12Trial{}
		}
		rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3}
		res, err := rx.ReceiveCalibration(sim.P, run.RxWave, 0, o.Reps)
		if err != nil {
			return fig12Trial{}
		}
		return fig12Trial{errNs: math.Abs(res.SingleShot-res.GroundTruth) / nsToSample, ok: true}
	})

	var out []Fig12Point
	for i, snr := range o.SNRsdB {
		var errsNs []float64
		dropped := 0
		for _, tr := range grid[i] {
			if tr.ok {
				errsNs = append(errsNs, tr.errNs)
			} else {
				dropped++
			}
		}
		pt := Fig12Point{SNRdB: snr, Usable: len(errsNs), Dropped: dropped}
		if len(errsNs) > 0 {
			pt.P50Ns = dsp.Percentile(errsNs, 50)
			pt.P95Ns = dsp.Percentile(errsNs, 95)
		}
		out = append(out, pt)
	}
	return out
}

// fig12Sim draws one random transmitter-pair placement at the target SNR.
func fig12Sim(rng *rand.Rand, cfg *Config, snrDB float64) *phy.JointSimConfig {
	p := phy.JointFrameParams{
		Cfg: cfg, Rate: modem.Rate{Mod: modem.QPSK, Code: modem.Rate12},
		DataCP: cfg.CPLen, PayloadLen: 40, Seed: 0x5d, NumCo: 1,
		LeadID: 1, PacketID: 0x1234,
	}
	mk := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, 30, 6) }
	sigPower := cePower(cfg)
	noise := channel.NoisePowerForSNR(sigPower, snrDB)
	dLeadCo := 1 + rng.Float64()*10
	tLeadRx := 1 + rng.Float64()*12
	tCoRx := 1 + rng.Float64()*12
	return &phy.JointSimConfig{
		P:        p,
		Lead:     phy.LeadSim{ResidCFO: smallResid(rng, cfg), Phase: rng.Float64() * 2 * math.Pi},
		LeadToCo: []phy.Link{{Gain: 1, Delay: dLeadCo, Path: mk()}},
		LeadToRx: phy.Link{Gain: 1, Delay: tLeadRx, Path: mk()},
		CoToRx:   []phy.Link{{Gain: 1, Delay: tCoRx, Path: mk()}},
		Co: []phy.CoSenderSim{{
			Turnaround:       600 + rng.Float64()*400,
			OscCFO:           channel.PPMToCFO((rng.Float64()*2-1)*20, 5.8e9, cfg.SampleRateHz),
			ResidCFO:         smallResid(rng, cfg),
			Phase:            rng.Float64() * 2 * math.Pi,
			EstDelayFromLead: dLeadCo,
			TxOffset:         tLeadRx - tCoRx,
			NoisePower:       noise,
			FFTBackoff:       3,
			DetectJitter:     38,
		}},
		NoiseRx: noise,
		Rng:     rng,
	}
}

// smallResid draws a residual CFO after pre-correction: a couple percent of
// a typical crystal offset.
func smallResid(rng *rand.Rand, cfg *Config) float64 {
	return channel.PPMToCFO((rng.Float64()*2-1)*0.4, 5.8e9, cfg.SampleRateHz)
}

// cePower returns the per-sample power of one OFDM training symbol for this
// profile (the reference for SNR targets).
func cePower(cfg *Config) float64 {
	lts := cfg.LTSTime()
	return dsp.MeanPower(lts)
}
