package channel

import (
	"math"
	"math/rand"
)

// SpeedOfLight in meters/second, used to convert distance to propagation
// delay.
const SpeedOfLight = 299792458.0

// PathLossModel is a log-distance path loss model with log-normal shadowing:
// PL(d) = PL0 + 10*n*log10(d/d0) + X_sigma (all dB).
type PathLossModel struct {
	RefLossDB   float64 // PL0: loss at the reference distance
	RefDistM    float64 // d0, meters (default 1)
	Exponent    float64 // n: 2 free space, 3-4 indoor NLOS
	ShadowSigma float64 // sigma of the shadowing term, dB (0 disables)
}

// DefaultIndoor returns parameters typical of an indoor office at 5 GHz.
func DefaultIndoor() PathLossModel {
	return PathLossModel{RefLossDB: 47, RefDistM: 1, Exponent: 3.0, ShadowSigma: 4}
}

// LossDB returns the path loss in dB at distance d (meters), drawing the
// shadowing term from rng (pass nil for the median loss).
func (p PathLossModel) LossDB(d float64, rng *rand.Rand) float64 {
	if d < p.RefDistM {
		d = p.RefDistM
	}
	loss := p.RefLossDB + 10*p.Exponent*math.Log10(d/p.RefDistM)
	if rng != nil && p.ShadowSigma > 0 {
		loss += rng.NormFloat64() * p.ShadowSigma
	}
	return loss
}

// PropagationDelaySamples returns the propagation delay over d meters in
// units of samples at the given sample rate.
func PropagationDelaySamples(d, sampleRateHz float64) float64 {
	return d / SpeedOfLight * sampleRateHz
}

// SNRFromBudget computes the receiver SNR (dB) given transmit power (dBm),
// path loss (dB) and noise floor (dBm).
func SNRFromBudget(txPowerDBm, lossDB, noiseFloorDBm float64) float64 {
	return txPowerDBm - lossDB - noiseFloorDBm
}

// NoiseFloorDBm returns the thermal noise floor for the given bandwidth and
// receiver noise figure: -174 dBm/Hz + 10*log10(BW) + NF.
func NoiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bandwidthHz) + noiseFigureDB
}

// PPMToCFO converts an oscillator offset in parts-per-million at the given
// carrier frequency into cycles-per-sample at the given sample rate.
func PPMToCFO(ppm, carrierHz, sampleRateHz float64) float64 {
	return ppm * 1e-6 * carrierHz / sampleRateHz
}
