package sourcesync

import (
	"math/rand"

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
}

// fig13SNRdB is the per-sender SNR of every frame on Fig. 13's pair,
// including the ablations that reuse it.
const fig13SNRdB = 25

// DefaultFig13Options returns the parameters used by ssbench.
func DefaultFig13Options() Fig13Options {
	cps := []float64{0, 39, 78, 117, 156, 234, 312, 391, 469, 547, 625, 703, 781}
	return Fig13Options{CPsNs: cps, FramesPerCP: 12}
}

// Fig13Point is the achieved SNR at one CP value.
type Fig13Point struct {
	CPNs          float64
	CPSamples     int
	SourceSyncSNR float64 // dB, EVM-derived effective SNR
	BaselineSNR   float64 // dB
}

// RunFig13 regenerates Figure 13: composite SNR versus cyclic prefix for
// SourceSync and the unsynchronized baseline on the WiGLAN-like profile.
// Each CP point runs 2*FramesPerCP trials on the engine — the first
// FramesPerCP with SourceSync's compensation, the rest with the baseline —
// so both arms parallelize together and remain deterministic. A trial
// yields its frame's EVM, or 0 when the frame yields none.
func RunFig13(ec engine.Config, o Fig13Options) []Fig13Point {
	cfg := modem.ProfileWiGLAN()
	cpSamples := make([]int, len(o.CPsNs))
	for i, cpNs := range o.CPsNs {
		cpSamples[i] = int(cpNs * 1e-9 * cfg.SampleRateHz)
	}

	grid := engine.Grid(ec, len(o.CPsNs), 2*o.FramesPerCP, func(pt, trial int, rng *rand.Rand) float64 {
		cp := cpSamples[pt]
		sim := fig13Pair.draw(rng, cfg, fig13SNRdB)
		sim.P.DataCP = cp
		sim.Co[0].BaselineSync = trial >= o.FramesPerCP
		wave := send(sim)
		if wave == nil {
			return 0
		}
		rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: min(cp, 3)}
		res, err := rx.Receive(wave, 0)
		if err != nil {
			return 0
		}
		return res.EVM
	})

	var out []Fig13Point
	for i, cpNs := range o.CPsNs {
		var sum [2]float64 // SourceSync, baseline
		var n [2]int
		for trial, evm := range grid[i] {
			if evm <= 0 {
				continue
			}
			arm := trial / o.FramesPerCP
			sum[arm] += 1 / evm
			n[arm]++
		}
		pt := Fig13Point{CPNs: cpNs, CPSamples: cpSamples[i]}
		if n[0] > 0 {
			pt.SourceSyncSNR = dsp.DB(sum[0] / float64(n[0]))
		}
		if n[1] > 0 {
			pt.BaselineSNR = dsp.DB(sum[1] / float64(n[1]))
		}
		out = append(out, pt)
	}
	return out
}
