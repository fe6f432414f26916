package dsp

import (
	"math"
	"math/cmplx"
)

// Template is a correlation reference prepared for CorrelationPeak: its
// samples, their energy, and the conjugate spectrum of the samples
// zero-padded to an FFT size that covers the longest stream it is meant
// to be searched in. A Template is read-only once built, so one value
// serves every goroutine.
type Template struct {
	ref    []complex128
	energy float64      // Energy(ref), the in-order sum the exact path divides by
	spec   []complex128 // conj(FFT(ref zero-padded to len(spec)))
	// inRange reports that every component of ref passes inBracketRange.
	inRange bool
}

// NewTemplate prepares ref for CorrelationPeak searches over streams of up
// to maxLen samples (longer streams stay correct; they build their own
// spectrum per call). ref is retained, not copied, and must not change.
func NewTemplate(ref []complex128, maxLen int) *Template {
	t := &Template{ref: ref, energy: Energy(ref), inRange: inBracketRange(ref)}
	t.spec = conjSpectrum(ref, fftSizeFor(max(maxLen, len(ref))))
	return t
}

// Len returns the number of reference samples.
func (t *Template) Len() int { return len(t.ref) }

// Bracket constants. The bracket runs on streams of at most
// maxBracketLen samples whose nonzero real and imaginary parts, and those
// of ref, all lie in [2^-240, 2^240]. Then nothing the exact path or the
// FFT computes overflows, and underflow adds at most ~2^-1000 absolutely
// against margins of at least 2^-510. With u = 2^-53, the FFT
// correlation's error at any lag is at most about
// 3·log2(M)·11u·sqrt(len(ref))·‖x‖·‖ref‖ (two forward transforms and an
// inverse, radix-2 with computed twiddles, normwise), under
// 2^-36·‖x‖·‖ref‖ at the largest sizes allowed here and 2^-40 for the
// WiGLAN search. The exact path's in-order sums, the prefix-sum
// differences and the bounds' own few roundings add at most
// (2·len(x)+len(ref)+8)·u of Eₓ to an energy and (len(ref)+8)·u of
// sqrt(Eₓ·E_ref) to a numerator. bracketMargin sits above the total by a
// factor of at least 40 at the largest sizes and over 1,000 for the
// WiGLAN search.
const (
	maxBracketLen = 1 << 16
	bracketMargin = 0x1p-30
	bracketMin    = 0x1p-240
	bracketMax    = 0x1p240
)

// CorrelationPeak returns the lag in [0, len(x)-len(ref)], for t's
// reference samples ref, at which the normalized cross-correlation
// magnitude
//
//	|sum(x[k+i]*conj(ref[i]))| / sqrt(E_ref * E_window(k))
//
// is largest, the first such lag on ties, with every lag's value computed
// as the in-order sums above (0 for a silent window, and 0 at every lag
// when E_ref is 0). It returns -1 when x is shorter than ref.
//
// Most lags are never summed: one zero-padded FFT correlation and the
// window energies from prefix sums bracket every lag's value within
// bracketMargin, and only lags whose upper bound reaches the best lower
// bound are summed exactly and compared. Any lag left out is strictly
// below the peak, so the result is the exact argmax. Inputs the bracket
// cannot bound (non-finite or extreme samples, streams over
// maxBracketLen) and windows whose energy bound reaches 0 are summed
// exactly.
func CorrelationPeak(x []complex128, t *Template) int {
	n := len(x) - len(t.ref) + 1
	if n <= 0 {
		return -1
	}
	if t.energy == 0 {
		return 0
	}
	return exactPeak(x, t, n, t.bracket(x, n))
}

// bracket returns which of the n lags of x may hold the correlation peak:
// those whose upper bound reaches the best lower bound over all lags, plus
// every lag whose window energy bound reaches 0. It returns nil (every
// lag) for an x it cannot bound.
func (t *Template) bracket(x []complex128, n int) func(k int) bool {
	if !t.inRange || len(x) > maxBracketLen || !inBracketRange(x) {
		return nil
	}
	ref := t.ref
	spec := t.spec
	if len(spec) < len(x) {
		spec = conjSpectrum(ref, fftSizeFor(len(x)))
	}
	// Linear correlation at lags [0, n) through a circular one of size
	// len(spec) >= len(x): no lag in range wraps.
	corr := make([]complex128, len(spec))
	copy(corr, x)
	FFTInto(corr, corr)
	for i, s := range spec {
		corr[i] *= s
	}
	IFFTInto(corr, corr)

	pre := make([]float64, len(x)+1)
	for i, v := range x {
		pre[i+1] = pre[i] + sqmag(v)
	}
	ex := pre[len(x)]
	if ex == 0 {
		return nil // every window is silent
	}
	numMargin := bracketMargin * math.Sqrt(ex*t.energy)
	energyMargin := bracketMargin * ex

	best := math.Inf(-1)
	for k := 0; k < n; k++ {
		w := pre[k+len(ref)] - pre[k]
		lo := (cmplx.Abs(corr[k]) - numMargin) / math.Sqrt(t.energy*(w+energyMargin))
		best = max(best, lo)
	}
	return func(k int) bool {
		w := pre[k+len(ref)] - pre[k]
		if w <= energyMargin {
			return true
		}
		hi := (cmplx.Abs(corr[k]) + numMargin) / math.Sqrt(t.energy*(w-energyMargin))
		return hi >= best
	}
}

// exactPeak sums every lag in [0, n) that keep admits (all of them when
// keep is nil) and returns the first lag with the largest value.
func exactPeak(x []complex128, t *Template, n int, keep func(int) bool) int {
	peak, peakV := -1, 0.0
	for k := 0; k < n; k++ {
		if keep != nil && !keep(k) {
			continue
		}
		if v := correlationAt(x, t.ref, t.energy, k); peak < 0 || v > peakV {
			peak, peakV = k, v
		}
	}
	return peak
}

// correlationAt is the normalized correlation magnitude at lag k with the
// window energy and numerator summed in order, sample by sample.
func correlationAt(x, ref []complex128, eRef float64, k int) float64 {
	var acc complex128
	var eWin float64
	for i, r := range ref {
		v := x[k+i]
		acc += v * cmplx.Conj(r)
		eWin += real(v)*real(v) + imag(v)*imag(v)
	}
	if eWin == 0 {
		return 0
	}
	den := eRef * eWin
	return cmplx.Abs(acc) / sqrt(den)
}

// inBracketRange reports whether every real and imaginary part of x is 0
// or has a magnitude in [bracketMin, bracketMax]; NaN and ±Inf fail.
func inBracketRange(x []complex128) bool {
	for _, v := range x {
		for _, c := range [2]float64{real(v), imag(v)} {
			if a := math.Abs(c); a != 0 && !(a >= bracketMin && a <= bracketMax) {
				return false
			}
		}
	}
	return true
}

// fftSizeFor returns the smallest power of two >= n (n >= 1).
func fftSizeFor(n int) int {
	m := 1
	for m < n {
		m <<= 1
	}
	return m
}

// conjSpectrum returns conj(FFT(ref zero-padded to m)).
func conjSpectrum(ref []complex128, m int) []complex128 {
	s := make([]complex128, m)
	copy(s, ref)
	FFTInto(s, s)
	for i, v := range s {
		s[i] = cmplx.Conj(v)
	}
	return s
}

// EnergyRatio streams the double-sliding-window energy detector over x:
// at index d, the energy of the w samples from d+w over the energy of the
// w samples from d, or 0 while that trailing energy is at most 1e-30. A
// sharp rise marks packet energy arriving over the noise floor. The two
// running sums slide one sample per index with the same recurrence, in
// the same order, as a pass over the whole stream, but only as far as At
// is asked.
type EnergyRatio struct {
	x             []complex128
	w, d, n       int
	before, after float64
}

// NewEnergyRatio starts the detector at index 0 of x with windows of w
// samples.
func NewEnergyRatio(x []complex128, w int) *EnergyRatio {
	s := &EnergyRatio{x: x, w: w, n: max(len(x)-2*w, 0)}
	if s.n > 0 {
		for i := 0; i < w; i++ {
			s.before += sqmag(x[i])
			s.after += sqmag(x[i+w])
		}
	}
	return s
}

// Len returns the number of indices the stream yields: len(x)-2w, or 0.
func (s *EnergyRatio) Len() int { return s.n }

// At returns the ratio at index d, which must lie in [0, Len()) and must
// not precede the index of an earlier call.
func (s *EnergyRatio) At(d int) float64 {
	if d < s.d || d >= s.n {
		panic("dsp: EnergyRatio index out of order or range")
	}
	x, w, before, after := s.x, s.w, s.before, s.after
	for i := s.d; i < d; i++ {
		before += sqmag(x[i+w]) - sqmag(x[i])
		after += sqmag(x[i+2*w]) - sqmag(x[i+w])
		if before < 0 {
			before = 0
		}
		if after < 0 {
			after = 0
		}
	}
	s.d, s.before, s.after = d, before, after
	if before > 1e-30 {
		return after / before
	}
	return 0
}

// AutoCorr streams the Schmidl–Cox periodicity metric over x: at index d,
// |sum(x[d+i]*conj(x[d+i+lag]))|^2 / (sum |x[d+i+lag]|^2)^2 over a window
// of win samples, or 0 while that energy is at most 1e-30. Values near 1
// indicate a training sequence of period lag starting near d. Like
// EnergyRatio, the running sums slide only as far as At is asked.
type AutoCorr struct {
	x              []complex128
	lag, win, d, n int
	p              complex128
	r              float64
}

// NewAutoCorr starts the metric at index 0 of x for period lag and a
// window of win samples.
func NewAutoCorr(x []complex128, lag, win int) *AutoCorr {
	s := &AutoCorr{x: x, lag: lag, win: win, n: max(len(x)-lag-win, 0)}
	if s.n > 0 {
		for i := 0; i < win; i++ {
			s.p += x[i] * cmplx.Conj(x[i+lag])
			s.r += sqmag(x[i+lag])
		}
	}
	return s
}

// Len returns the number of indices the stream yields: len(x)-lag-win,
// or 0.
func (s *AutoCorr) Len() int { return s.n }

// At returns the metric at index d, which must lie in [0, Len()) and must
// not precede the index of an earlier call.
func (s *AutoCorr) At(d int) float64 {
	if d < s.d || d >= s.n {
		panic("dsp: AutoCorr index out of order or range")
	}
	x, lag, win, p, r := s.x, s.lag, s.win, s.p, s.r
	for i := s.d; i < d; i++ {
		p -= x[i] * cmplx.Conj(x[i+lag])
		p += x[i+win] * cmplx.Conj(x[i+win+lag])
		r -= sqmag(x[i+lag])
		r += sqmag(x[i+win+lag])
		if r < 0 {
			r = 0
		}
	}
	s.d, s.p, s.r = d, p, r
	if r > 1e-30 {
		m := cmplx.Abs(p)
		return m * m / (r * r)
	}
	return 0
}

func sqmag(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}
