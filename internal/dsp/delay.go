package dsp

import "math"

// sqrt is a local alias so hot paths avoid repeated package qualification.
func sqrt(x float64) float64 { return math.Sqrt(x) }

// FracDelayTaps returns the 2*side+1 taps of the Hann-windowed sinc
// filter for a delay of side+frac samples (0 < frac < 1), normalized to
// unit DC gain, in dst's storage when it has the capacity. Tap j scales
// the input sample j-side samples before the output it lands on, so the
// filter delays by frac once its side samples of group delay are
// dropped. Fractional delay is what makes sub-sample misalignment between
// SourceSync senders representable at the waveform level; channel.Mix
// runs the filter.
func FracDelayTaps(dst []float64, frac float64, side int) []float64 {
	n := 2*side + 1
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	taps := dst[:n]
	var sum float64
	for i := range taps {
		// Tap i corresponds to n = i - side; the ideal filter for delay
		// d = side + frac (integer group delay + fractional part) is
		// sinc(i - d) windowed.
		t := float64(i) - (float64(side) + frac)
		s := sinc(t)
		w := 0.5 * (1 + math.Cos(math.Pi*(float64(i)-float64(side))/float64(side+1)))
		taps[i] = s * w
		sum += taps[i]
	}
	// Normalize DC gain to 1 so the delay does not change signal power.
	if sum != 0 {
		for i := range taps {
			taps[i] /= sum
		}
	}
	return taps
}

func sinc(x float64) float64 {
	if math.Abs(x) < 1e-12 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// PhaseRampDelay applies a delay of d samples to a frequency-domain symbol by
// multiplying subcarrier k (in FFT bin order, with negative frequencies in
// the upper half) by e^{-j*2*pi*k*d/N}. This is the FFT shift property the
// SLS detection-delay estimator inverts (paper Eq. 1).
func PhaseRampDelay(bins []complex128, d float64) {
	n := len(bins)
	for k := range bins {
		// Signed subcarrier index for bins in standard FFT order.
		sk := k
		if k > n/2 {
			sk = k - n
		}
		angle := -2 * math.Pi * float64(sk) * d / float64(n)
		bins[k] *= complex(math.Cos(angle), math.Sin(angle))
	}
}
