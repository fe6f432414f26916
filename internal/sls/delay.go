// Package sls implements SourceSync's Symbol Level Synchronizer (paper §4):
// packet-detection-delay estimation from the phase slope of OFDM channel
// estimates, propagation-delay measurement from probe/response exchanges,
// the co-sender schedule that internal/phy's joint exchange runs
// (CoSenderStart: when a co-sender transmits, or that it abstains),
// ACK-driven misalignment tracking, and the multi-receiver min-max
// wait-time optimization.
package sls

import (
	"math"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/modem"
)

// SIFS is the 802.11 short interframe space: the guaranteed bound on a
// node's receive-to-transmit turnaround (10 us in 802.11 a/g/n), which
// SourceSync uses as the global time reference offset after the
// synchronization header (paper §4.3).
const SIFS = 10e-6

// SIFSSamples returns SIFS in units of samples for the given config.
func SIFSSamples(cfg *modem.Config) float64 { return SIFS * cfg.SampleRateHz }

// SlopeWindowHz is the width of the subcarrier windows over which channel
// phase slopes are fitted: 3 MHz, below the coherence bandwidth of indoor
// channels, so the channel is approximately flat within a window (paper
// §4.2a).
const SlopeWindowHz = 3e6

// EstimateDelay measures the timing offset (in samples, fractional) of the
// FFT window used to compute channel estimate h, via the FFT shift theorem:
// a delay of d samples contributes phase -2*pi*k*d/N on subcarrier k. Slopes
// are fitted over windows of consecutive used subcarriers spanning at most
// SlopeWindowHz, weighted by window channel power, and averaged (paper Eq 1).
//
// A positive return value means the window was placed d samples after the
// channel's energy centroid (the packet was "detected late").
func EstimateDelay(cfg *modem.Config, h []complex128) float64 {
	return EstimateDelayWindowed(cfg, h, SlopeWindowHz)
}

// EstimateDelayWindowed is EstimateDelay with an explicit window width; the
// whole-band fit used by the ablation experiments passes a huge width.
func EstimateDelayWindowed(cfg *modem.Config, h []complex128, windowHz float64) float64 {
	used := cfg.UsedBins()
	if len(used) < 2 {
		return 0
	}
	winBins := int(windowHz / cfg.SubcarrierSpacingHz())
	if winBins < 2 {
		winBins = 2
	}

	var slopeAcc, weightAcc float64
	for start := 0; start < len(used); start += winBins {
		end := start + winBins
		if end > len(used) {
			end = len(used)
		}
		if end-start < 2 {
			break
		}
		ks := make([]float64, 0, end-start)
		phases := make([]float64, 0, end-start)
		var weight float64
		for _, k := range used[start:end] {
			v := h[cfg.Bin(k)]
			if v == 0 {
				continue
			}
			ks = append(ks, float64(k))
			phases = append(phases, cmplx.Phase(v))
			weight += real(v)*real(v) + imag(v)*imag(v)
		}
		if len(ks) < 2 || weight == 0 {
			continue
		}
		slope, _ := dsp.LinearFit(ks, dsp.Unwrap(phases))
		slopeAcc += slope * weight
		weightAcc += weight
	}
	if weightAcc == 0 {
		return 0
	}
	slope := slopeAcc / weightAcc
	// slope = -2*pi*d/N  =>  d = -slope*N/(2*pi).
	return -slope * float64(cfg.NFFT) / (2 * math.Pi)
}

// Misalignment returns the symbol misalignment between two senders, in
// samples, from their individual channel estimates within the same joint
// frame: the difference of their timing offsets (paper §4.5). Positive
// means the co-sender (hCo) arrived later than the lead (hLead).
func Misalignment(cfg *modem.Config, hLead, hCo []complex128) float64 {
	return EstimateDelay(cfg, hCo) - EstimateDelay(cfg, hLead)
}
