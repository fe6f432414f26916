package dsp

import "math"

// sqrt is a local alias so hot paths avoid repeated package qualification.
func sqrt(x float64) float64 { return math.Sqrt(x) }

// FracDelayInto writes x delayed by frac (0 < frac < 1) samples into dst.
// The delay is a Hann-windowed sinc filter of 2*side+1 taps (side < 1
// means 8) normalized to unit DC gain, with the filter's own side samples
// of group delay dropped: dst[m] sums x[i]*tap[m+side-i] over i in
// ascending order, starting from zero and skipping silent samples. The
// delayed wave has len(x)+side samples; dst may be shorter (later samples
// are not computed) or longer (the rest is zero).
//
// Fractional delay is what makes sub-sample misalignment between
// SourceSync senders representable at the waveform level.
func FracDelayInto(dst, x []complex128, frac float64, side int) {
	if side < 1 {
		side = 8
	}
	var stack [33]float64 // taps for side <= 16 stay off the heap
	taps := fracDelayTaps(stack[:0], frac, side)
	clear(dst)
	for i, v := range x {
		if i-side >= len(dst) {
			break
		}
		if v == 0 {
			continue
		}
		// Tap j lands on dst[i+j-side]; a real tap scales each part.
		lo, hi := max(side-i, 0), min(len(taps), len(dst)+side-i)
		re, im := real(v), imag(v)
		ts := taps[lo:hi]
		o := dst[i+lo-side:][:len(ts)]
		for j, t := range ts {
			o[j] += complex(re*t, im*t)
		}
	}
}

// fracDelayTaps appends to buf the 2*side+1 taps of the Hann-windowed
// sinc filter for a delay of side+frac samples, normalized to unit DC
// gain.
func fracDelayTaps(buf []float64, frac float64, side int) []float64 {
	taps := append(buf, make([]float64, 2*side+1)...)
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
