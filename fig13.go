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

// Fig13Options configures the CP-sweep experiment (§8.1.2): a LOS
// transmitter pair with identical hardware transmits jointly at each cyclic
// prefix value, once with SourceSync's delay compensation and once with the
// uncompensated baseline; the achieved composite SNR (from data-symbol EVM)
// is reported per CP.
type Fig13Options struct {
	CPsNs       []float64
	FramesPerCP int
	SNRdB       float64
}

// DefaultFig13Options returns the parameters used by ssbench.
func DefaultFig13Options() Fig13Options {
	cps := []float64{0, 39, 78, 117, 156, 234, 312, 391, 469, 547, 625, 703, 781}
	return Fig13Options{CPsNs: cps, FramesPerCP: 6, SNRdB: 25}
}

// Fig13Point is the achieved SNR at one CP value.
type Fig13Point struct {
	CPNs           float64
	CPSamples      int
	SourceSyncSNR  float64 // dB, EVM-derived effective SNR
	BaselineSNR    float64 // dB
	SourceSyncFail int     // frames that did not even yield an EVM
	BaselineFail   int
}

// fig13Trial is one joint frame's EVM outcome.
type fig13Trial struct {
	invEVM float64
	ok     bool
}

// RunFig13 regenerates Figure 13: composite SNR versus cyclic prefix for
// SourceSync and the unsynchronized baseline on the WiGLAN-like profile.
// Each CP point runs 2*FramesPerCP trials on the engine — the first
// FramesPerCP with SourceSync's compensation, the rest with the baseline —
// so both arms parallelize together and remain deterministic.
func RunFig13(ec engine.Config, o Fig13Options) []Fig13Point {
	cfg := ProfileWiGLAN()
	cpSamples := make([]int, len(o.CPsNs))
	for i, cpNs := range o.CPsNs {
		cpSamples[i] = int(cpNs * 1e-9 * cfg.SampleRateHz)
	}

	grid := engine.Grid(ec, len(o.CPsNs), 2*o.FramesPerCP, func(pt, trial int, rng *rand.Rand) fig13Trial {
		baseline := trial >= o.FramesPerCP
		cp := cpSamples[pt]
		sim := fig13Sim(rng, cfg, cp, o.SNRdB, baseline)
		payload := make([]byte, sim.P.PayloadLen)
		rng.Read(payload)
		run, err := sim.Run(payload)
		if err != nil || !run.CoJoined[0] {
			return fig13Trial{}
		}
		backoff := 3
		if cp < 3 {
			backoff = cp
		}
		rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: backoff}
		res, err := rx.Receive(run.RxWave, 0)
		if err != nil || res.EVM <= 0 {
			return fig13Trial{}
		}
		return fig13Trial{invEVM: 1 / res.EVM, ok: true}
	})

	var out []Fig13Point
	for i, cpNs := range o.CPsNs {
		pt := Fig13Point{CPNs: cpNs, CPSamples: cpSamples[i]}
		var ssSum, blSum float64
		var ssN, blN int
		for trial, r := range grid[i] {
			baseline := trial >= o.FramesPerCP
			switch {
			case !r.ok && baseline:
				pt.BaselineFail++
			case !r.ok:
				pt.SourceSyncFail++
			case baseline:
				blSum += r.invEVM
				blN++
			default:
				ssSum += r.invEVM
				ssN++
			}
		}
		if ssN > 0 {
			pt.SourceSyncSNR = dsp.DB(ssSum / float64(ssN))
		}
		if blN > 0 {
			pt.BaselineSNR = dsp.DB(blSum / float64(blN))
		}
		out = append(out, pt)
	}
	return out
}

// fig13Sim builds a LOS pair with identical hardware; only propagation and
// detection timing differ between them (§8.1.2's setup).
func fig13Sim(rng *rand.Rand, cfg *Config, cp int, snrDB float64, baseline bool) *phy.JointSimConfig {
	p := phy.JointFrameParams{
		Cfg: cfg, Rate: modem.Rate{Mod: modem.QPSK, Code: modem.Rate12},
		DataCP: cp, PayloadLen: 60, Seed: 0x5d, NumCo: 1,
		LeadID: 1, PacketID: 0x13,
	}
	// A line-of-sight placement whose measured channel still shows ~15
	// significant taps (117 ns) at 128 MHz, matching the paper's Fig. 14.
	mk := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, 45, 3) }
	noise := channel.NoisePowerForSNR(cePower(cfg), snrDB)
	dLeadCo := 2 + rng.Float64()*6
	tLeadRx := 2 + rng.Float64()*8
	tCoRx := 2 + rng.Float64()*8
	return &phy.JointSimConfig{
		P:        p,
		Lead:     phy.LeadSim{ResidCFO: smallResid(rng, cfg), Phase: rng.Float64() * 2 * math.Pi},
		LeadToCo: []phy.Link{{Gain: 1, Delay: dLeadCo, Path: mk()}},
		LeadToRx: phy.Link{Gain: 1, Delay: tLeadRx, Path: mk()},
		CoToRx:   []phy.Link{{Gain: 1, Delay: tCoRx, Path: mk()}},
		Co: []phy.CoSenderSim{{
			Turnaround:       700, // identical hardware on both transmitters
			OscCFO:           channel.PPMToCFO((rng.Float64()*2-1)*20, 5.8e9, cfg.SampleRateHz),
			ResidCFO:         smallResid(rng, cfg),
			Phase:            rng.Float64() * 2 * math.Pi,
			EstDelayFromLead: dLeadCo,
			TxOffset:         tLeadRx - tCoRx,
			NoisePower:       noise,
			FFTBackoff:       3,
			BaselineSync:     baseline,
			DetectJitter:     38,
		}},
		NoiseRx: noise,
		Rng:     rng,
	}
}
