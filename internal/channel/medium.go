package channel

import (
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/dsp"
)

// Emission is one transmitter's contribution to a receiver's baseband
// stream: a waveform launched at an absolute (fractional) sample time,
// passed through a multipath channel, scaled by the link's amplitude gain
// and rotated by the transmitter oscillator's frequency and phase offsets.
type Emission struct {
	Wave  []complex128
	Start float64    // absolute start time in receiver samples; may be fractional
	Gain  float64    // amplitude gain (sqrt of power gain); 0 means 1.0
	CFO   float64    // transmitter-vs-receiver frequency offset, cycles/sample
	Phase float64    // oscillator phase offset at absolute sample 0, radians
	Path  *Multipath // nil means flat
}

// Mix renders the receiver's baseband stream over the absolute sample window
// [origin, origin+n): the superposition of all emissions plus complex AWGN
// of the given per-sample power. Emissions that begin before origin are
// rejected (panic) since their energy would be truncated silently.
func Mix(rng *rand.Rand, n, origin int, noisePower float64, emissions ...Emission) []complex128 {
	out := make([]complex128, n)
	var scratch []complex128
	for _, e := range emissions {
		scratch = renderInto(out, origin, e, scratch)
	}
	if noisePower > 0 {
		sigma := math.Sqrt(noisePower / 2)
		for i := range out {
			out[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	return out
}

// fracDelaySide is the fractional-delay filter's taps per side.
const fracDelaySide = 12

// renderInto adds emission e to out, whose first sample is absolute sample
// origin, and returns scratch, grown if e needed more, for the next
// emission. The wave passes through the multipath channel, the
// fractional-delay filter (for a fractional part of at least 1e-9 samples)
// and the integer delay, then the oscillator rotation adds it into out.
// Only samples that land in out are computed, each by the same operations
// in the same order as a full-length render. Products with a silent
// sample are skipped: with finite waves, taps and gains each is ±0, and
// adding ±0 to an accumulator that starts at +0 never changes its bits
// (in round-to-nearest +0 + -0 = +0, so no accumulator ever holds -0).
func renderInto(out []complex128, origin int, e Emission, scratch []complex128) []complex128 {
	rel := e.Start - float64(origin)
	if rel < 0 {
		panic("channel: emission starts before mixing window")
	}
	ip := int(math.Floor(rel))
	frac := rel - float64(ip)
	filtered := frac >= 1e-9

	// The wave after the channel (w) and after the fractional delay (f),
	// cut to what lands in out: f[k] lands on out[ip+k], and the filter
	// reads side samples of w past the last f it writes.
	wLen := len(e.Wave)
	if e.Path != nil {
		wLen += len(e.Path.Taps) - 1
	}
	side := 0
	if filtered {
		side = fracDelaySide
	}
	fLen := min(wLen+side, len(out)-ip)
	if fLen <= 0 {
		return scratch
	}
	wLen = min(wLen, fLen+side)
	need := 0
	if e.Path != nil {
		need += wLen
	}
	if filtered {
		need += fLen
	}
	if cap(scratch) < need {
		scratch = make([]complex128, need)
	}
	w, buf := e.Wave, scratch[:need]
	if e.Path != nil {
		w, buf = buf[:wLen], buf[wLen:]
		e.Path.convolveInto(w, e.Wave)
	}
	f := w[:min(len(w), fLen)]
	if filtered {
		f = buf[:fLen]
		dsp.FracDelayInto(f, w, frac, fracDelaySide)
	}

	gain := e.Gain
	if gain == 0 {
		gain = 1
	}
	// Oscillator rotation is a function of absolute time so that concurrent
	// emissions from different senders rotate relative to each other exactly
	// as in the paper (§5). cur steps once per sample from out's first
	// sample, across the integer-delay prefix too.
	rot := cmplx.Rect(gain, e.Phase)
	step := cmplx.Exp(complex(0, 2*math.Pi*e.CFO))
	cur := rot * cmplx.Exp(complex(0, 2*math.Pi*e.CFO*float64(origin)))
	for i := range ip + len(f) {
		if i >= ip && f[i-ip] != 0 {
			out[i] += f[i-ip] * cur
		}
		cur *= step
		if i&1023 == 1023 {
			// Keep |cur| from drifting over long frames.
			cur = cur / complex(cmplx.Abs(cur)/gain, 0)
		}
	}
	return scratch
}

// NoisePowerForSNR returns the per-sample noise power that yields the given
// SNR (dB) against a signal of per-sample power sigPower.
func NoisePowerForSNR(sigPower, snrDB float64) float64 {
	return sigPower / dsp.FromDB(snrDB)
}

// AddAWGN adds complex white Gaussian noise of the given per-sample power to
// x in place.
func AddAWGN(rng *rand.Rand, x []complex128, noisePower float64) {
	if noisePower <= 0 {
		return
	}
	sigma := math.Sqrt(noisePower / 2)
	for i := range x {
		x[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}
