package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

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
// rejected (panic) since their energy would be truncated silently. Mix
// allocates only the stream it returns.
func Mix(rng *rand.Rand, n, origin int, noisePower float64, emissions ...Emission) []complex128 {
	out := make([]complex128, n)
	for _, e := range emissions {
		renderInto(out, origin, e)
	}
	if noisePower > 0 {
		sigma := math.Sqrt(noisePower / 2)
		for i := range out {
			out[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	return out
}

const (
	// fracDelaySide is the fractional-delay filter's taps per side.
	fracDelaySide = 12
	// renderChunk is how many delayed samples renderInto computes from
	// one window of the multipath output.
	renderChunk = 512
)

// renderInto adds emission e to out, whose first sample is absolute sample
// origin. The wave x passes through the multipath channel (w), the
// fractional-delay filter (f, for a fractional part of at least 1e-9
// samples; below that f = w) and the integer delay ip, and the oscillator
// rotation adds f[m] into out[ip+m]. Only the f that land in out and near
// x's nonzero runs are computed: a run [a, b) makes w nonzero at most on
// [a, b+reach) and f on [a-side, b+reach+side), and runs closer than that
// share one stretch. w is computed a chunk at a time into a stack window
// that the delay filter reads, and each f[m] is summed in registers and
// added, rotated, straight into out. Every sum takes its products in the
// order of a full-length render, from +0, and each product left out is
// exactly ±0 (see convolveAt), so every sample keeps its bits.
func renderInto(out []complex128, origin int, e Emission) {
	rel := e.Start - float64(origin)
	if rel < 0 {
		panic("channel: emission starts before mixing window")
	}
	ip := int(math.Floor(rel))
	frac := rel - float64(ip)

	// h is the delay filter in input order: f[m] sums w[m-side+j]*h[j]
	// over j ascending. An integer delay runs the identity filter, whose
	// one product per sample is exact.
	side, h := 0, []float64{1}
	var hBuf [2*fracDelaySide + 1]float64
	if frac >= 1e-9 {
		side = fracDelaySide
		h = dsp.FracDelayTaps(hBuf[:], frac, side)
		slices.Reverse(h)
	}
	reach := 0
	if e.Path != nil {
		reach = max(len(e.Path.Taps)-1, 0)
	}
	// f[m] lands in out for m < fEnd, and reads no x past fEnd+side.
	fEnd := min(len(e.Wave)+reach+side, len(out)-ip)
	if fEnd <= 0 {
		return
	}
	x := e.Wave[:min(len(e.Wave), fEnd+side)]

	gain := e.Gain
	if gain == 0 {
		gain = 1
	}
	// Oscillator rotation is a function of absolute time so that concurrent
	// emissions from different senders rotate relative to each other exactly
	// as in the paper (§5). cur is the rotation at out[i]: it steps once per
	// sample from out's first sample, across silences too.
	rot := cmplx.Rect(gain, e.Phase)
	step := cmplx.Exp(complex(0, 2*math.Pi*e.CFO))
	cur := rot * cmplx.Exp(complex(0, 2*math.Pi*e.CFO*float64(origin)))
	i := 0

	var win [renderChunk + 2*fracDelaySide]complex128
	for a, b := nextRun(x, 0); a < len(x); {
		c, d := nextRun(x, b)
		for c < len(x) && c-b <= reach+2*side {
			b = d
			c, d = nextRun(x, b)
		}
		lo, hi := max(a-side, 0), min(b+reach+side, fEnd)
		for ; i < ip+lo; i++ {
			cur = rotate(cur, step, i, gain)
		}
		for m0 := lo; m0 < hi; m0 += renderChunk {
			m1 := min(m0+renderChunk, hi)
			// w[k0+j] for j < len(w), zero outside [a, b+reach). The
			// previous chunk's last 2*side samples start this one.
			k0 := m0 - side
			w := win[:m1-m0+2*side]
			have := 0
			if m0 > lo {
				have = copy(w[:2*side], win[renderChunk:])
			}
			wlo := min(max(a-k0, have), len(w))
			whi := max(min(b+reach-k0, len(w)), wlo)
			clear(w[have:wlo])
			clear(w[whi:])
			switch {
			case wlo == whi:
			case e.Path != nil:
				e.Path.convolveAt(w[wlo:whi], x[a:b], k0+wlo-a)
			default:
				copy(w[wlo:whi], x[k0+wlo:])
			}
			cur = addDelayed(out[i:ip+m1], w, h, cur, step, i, gain)
			i = ip + m1
		}
		if hi == fEnd {
			return
		}
		a, b = c, d
	}
}

// addDelayed adds the delayed samples of the window w, rotated, into o,
// whose first sample is out sample i and whose rotation is cur: o[q] gets
// f[q]*cur_q, where f[q] sums w[q+j]*h[j] over j ascending from +0, four
// outputs per pass over the taps. It returns the rotation at sample
// i+len(o). w must hold len(o)+len(h)-1 samples.
func addDelayed(o, w []complex128, h []float64, cur, step complex128, i int, gain float64) complex128 {
	q := 0
	for ; q+4 <= len(o); q += 4 {
		f0, f1, f2, f3 := delay4(w[q:q+len(h)+3], h)
		b := o[q : q+4 : q+4]
		b[0] += f0 * cur
		cur = rotate(cur, step, i+q, gain)
		b[1] += f1 * cur
		cur = rotate(cur, step, i+q+1, gain)
		b[2] += f2 * cur
		cur = rotate(cur, step, i+q+2, gain)
		b[3] += f3 * cur
		cur = rotate(cur, step, i+q+3, gain)
	}
	for ; q < len(o); q++ {
		var re, im float64
		for j, t := range h {
			re += real(w[q+j]) * t
			im += imag(w[q+j]) * t
		}
		o[q] += complex(re, im) * cur
		cur = rotate(cur, step, i+q, gain)
	}
	return cur
}

// delay4 returns the first four delayed samples of the window w, which
// holds len(h)+3 samples: f[q] sums w[q+j]*h[j] over j ascending, from +0.
// The window's silent samples add products of ±0, which leave every sum
// as a render that skipped them would have it (see convolveAt). Keep the
// order: a sum in any other rounds differently.
func delay4(w []complex128, h []float64) (f0, f1, f2, f3 complex128) {
	var r0, i0, r1, i1, r2, i2, r3, i3 float64
	for j, t := range h {
		s := w[j : j+4 : j+4]
		r0 += real(s[0]) * t
		i0 += imag(s[0]) * t
		r1 += real(s[1]) * t
		i1 += imag(s[1]) * t
		r2 += real(s[2]) * t
		i2 += imag(s[2]) * t
		r3 += real(s[3]) * t
		i3 += imag(s[3]) * t
	}
	return complex(r0, i0), complex(r1, i1), complex(r2, i2), complex(r3, i3)
}

// rotate returns the oscillator rotation at sample i+1 given cur, the
// rotation at sample i: one step, and every 1,024 samples a
// renormalization to magnitude gain that keeps |cur| from drifting over
// long frames.
func rotate(cur, step complex128, i int, gain float64) complex128 {
	cur *= step
	if i&1023 == 1023 {
		cur = cur / complex(cmplx.Abs(cur)/gain, 0)
	}
	return cur
}

// nextRun returns the first run [a, b) of nonzero samples of x at or
// after i, with a = len(x) when there is none.
func nextRun(x []complex128, i int) (a, b int) {
	for i < len(x) && x[i] == 0 {
		i++
	}
	a = i
	for i < len(x) && x[i] != 0 {
		i++
	}
	return a, i
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
