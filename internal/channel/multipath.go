// Package channel emulates the indoor wireless channel the SourceSync
// testbed ran over: sample-spaced multipath with Rayleigh or Rician taps and
// an exponential power-delay profile, AWGN, log-distance path loss with
// shadowing, per-oscillator carrier frequency offsets, and a Medium that
// mixes the emissions of several concurrent transmitters at each receiver
// with fractional-sample propagation delays.
package channel

import (
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/dsp"
)

// Multipath is a sample-spaced tap-delay-line channel.
type Multipath struct {
	Taps []complex128
}

// NewRayleigh draws a Rayleigh-fading multipath channel with nTaps taps and
// an exponential power-delay profile with the given decay constant (in
// taps). The realized tap power is normalized to exactly 1: small-scale
// fading shows up per subcarrier (frequency selectivity) while large-scale
// power variation is modeled separately by shadowing in the path loss model,
// keeping link budgets controlled in experiments.
func NewRayleigh(rng *rand.Rand, nTaps int, decayTaps float64) *Multipath {
	taps := make([]complex128, max(nTaps, 1))
	p := newProfile(len(taps), decayTaps, false, 0)
	p.draw(rng, taps)
	return &Multipath{Taps: taps}
}

// NewRician is like NewRayleigh but adds a deterministic line-of-sight
// component on the first tap with the given K-factor (dB): the ratio of LOS
// power to total scattered power.
func NewRician(rng *rand.Rand, nTaps int, decayTaps, kFactorDB float64) *Multipath {
	taps := make([]complex128, max(nTaps, 1))
	p := newProfile(len(taps), decayTaps, true, kFactorDB)
	p.draw(rng, taps)
	return &Multipath{Taps: taps}
}

// profile holds the constants of one tap-delay profile: each tap's
// per-quadrature standard deviation, sqrt(exp(-i/decay)/2) for an
// exponential power-delay profile, and for a line-of-sight (Rician)
// profile the scattered and LOS amplitudes of its K-factor.
type profile struct {
	weights         []float64
	los             bool
	scatter, direct float64 // sqrt(1/(1+k)) and sqrt(k/(1+k)), k = K linear
}

func newProfile(nTaps int, decayTaps float64, los bool, kFactorDB float64) profile {
	p := profile{weights: make([]float64, nTaps), los: los}
	for i := range p.weights {
		pow := math.Exp(-float64(i) / math.Max(decayTaps, 1e-9))
		p.weights[i] = math.Sqrt(pow / 2)
	}
	if los {
		k := dsp.FromDB(kFactorDB)
		p.scatter, p.direct = math.Sqrt(1/(1+k)), math.Sqrt(k/(1+k))
	}
	return p
}

// draw fills taps, one per weight, with one channel realization: Rayleigh
// taps normalized to unit power, then, for a line-of-sight profile,
// scaled to the scattered share, with a random-phase LOS component added
// to the first tap and the whole renormalized. The RNG is consumed in
// that order: two normals per tap, then the LOS phase.
func (p *profile) draw(rng *rand.Rand, taps []complex128) {
	for i, g := range p.weights {
		taps[i] = complex(rng.NormFloat64()*g, rng.NormFloat64()*g)
	}
	normalize(taps)
	if !p.los {
		return
	}
	// Scattered power is currently 1; scale so scattered + LOS = 1.
	for i := range taps {
		taps[i] *= complex(p.scatter, 0)
	}
	phase := rng.Float64() * 2 * math.Pi
	taps[0] += cmplx.Rect(p.direct, phase)
	// Renormalize the realized power (LOS and scatter add incoherently only
	// in expectation).
	normalize(taps)
}

// normalize scales taps to a realized total power of exactly 1.
func normalize(taps []complex128) {
	norm := complex(1/math.Sqrt(tapPower(taps)), 0)
	for i := range taps {
		taps[i] *= norm
	}
}

// Flat returns a single-tap unit channel (no multipath).
func Flat() *Multipath {
	return &Multipath{Taps: []complex128{1}}
}

// NewIndoor draws a channel whose RMS delay spread is roughly spreadNs at
// sample rate fs. Line-of-sight placements should pass a positive K-factor.
func NewIndoor(rng *rand.Rand, fs, spreadNs, kFactorDB float64) *Multipath {
	nTaps, decayTaps := indoorProfile(fs, spreadNs)
	if kFactorDB > 0 {
		return NewRician(rng, nTaps, decayTaps, kFactorDB)
	}
	return NewRayleigh(rng, nTaps, decayTaps)
}

// indoorProfile returns NewIndoor's tap count (at least one) and decay
// constant (in taps) for an RMS delay spread of spreadNs at sample rate fs.
func indoorProfile(fs, spreadNs float64) (nTaps int, decayTaps float64) {
	decayTaps = spreadNs * 1e-9 * fs
	return max(int(math.Ceil(4*decayTaps))+1, 1), decayTaps
}

// Fading is the per-packet fading draw of one indoor environment:
// NewIndoor's channel at a fixed sample rate, delay spread and K-factor,
// seen on an nfft-point grid. NewFading computes every constant of the
// draw once (the tap count, the tap weights, the Rician amplitudes, the
// FFT plan), so Response does only per-packet work. A Fading is read-only
// after construction and safe to share between goroutines.
type Fading struct {
	profile
	plan *dsp.Plan
}

// NewFading builds the draw of NewIndoor(rng, fs, spreadNs, kFactorDB)'s
// frequency response on an nfft-point grid; nfft must be a power of two.
func NewFading(nfft int, fs, spreadNs, kFactorDB float64) *Fading {
	nTaps, decayTaps := indoorProfile(fs, spreadNs)
	return &Fading{
		profile: newProfile(nTaps, decayTaps, kFactorDB > 0, kFactorDB),
		plan:    dsp.PlanFor(nfft),
	}
}

// Response draws one channel and writes its frequency response (FFT bin
// order) into h, which must hold nfft points: the same RNG draws, and the
// same bits in every nonzero component, as NewIndoor(rng, fs, spreadNs,
// kFactorDB).FreqResponse(nfft). h's previous contents are ignored, so a
// caller need not clear it. It allocates nothing when the taps fit in h;
// with more taps than grid points it keeps FreqResponse's truncation to
// the first nfft.
func (f *Fading) Response(rng *rand.Rand, h []complex128) {
	nTaps := len(f.weights)
	if nTaps > len(h) {
		taps := make([]complex128, nTaps)
		f.draw(rng, taps)
		copy(h, taps)
		f.plan.FFTPrefix(h, len(h))
		return
	}
	f.draw(rng, h[:nTaps])
	f.plan.FFTPrefix(h, nTaps)
}

// Apply convolves x with the channel, returning len(x)+len(Taps)-1 samples.
func (m *Multipath) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x)+len(m.Taps)-1)
	m.convolveAt(out, x, 0)
	return out
}

// convolveAt writes samples k0, k0+1, ... of x convolved with the channel
// into w: w[j] sums Taps[i]*x[k0+j-i] over the taps in order, starting
// from +0, for every i whose x index lies in x. Four outputs share each
// pass over the taps where all their x indexes do. The sums are exact
// regardless of the zeros in x and Taps: with finite samples and taps, a
// product with a zero is ±0, and adding ±0 to a sum that starts at +0
// never changes its bits (in round-to-nearest +0 + -0 = +0, so no sum
// ever holds -0). Keep the tap order: a sum in any other order rounds
// differently.
func (m *Multipath) convolveAt(w, x []complex128, k0 int) {
	taps := m.Taps
	last := len(taps) - 1
	for j := 0; j < len(w); {
		k := k0 + j
		if k >= last && k+4 <= len(x) && j+4 <= len(w) {
			o := w[j : j+4 : j+4]
			o[0], o[1], o[2], o[3] = convolve4(taps, x[k-last:k+4])
			j += 4
			continue
		}
		var a complex128
		for i := max(k-len(x)+1, 0); i <= min(k, last); i++ {
			a += taps[i] * x[k-i]
		}
		w[j] = a
		j++
	}
}

// convolve4 returns four consecutive samples of a convolution with taps
// whose inputs x all holds: x has len(taps)+3 samples, and output q sums
// taps[i]*x[len(taps)-1+q-i] over i ascending, from +0.
func convolve4(taps, x []complex128) (a0, a1, a2, a3 complex128) {
	for i, t := range taps {
		s := x[len(taps)-1-i:][:4:4]
		a0 += t * s[0]
		a1 += t * s[1]
		a2 += t * s[2]
		a3 += t * s[3]
	}
	return a0, a1, a2, a3
}

// FreqResponse returns the channel's frequency response on an nfft-point
// grid (FFT bin order).
func (m *Multipath) FreqResponse(nfft int) []complex128 {
	t := make([]complex128, nfft)
	copy(t, m.Taps)
	return dsp.FFT(t)
}

// PowerDelayProfile returns |tap|^2 per tap index.
func (m *Multipath) PowerDelayProfile() []float64 {
	out := make([]float64, len(m.Taps))
	for i, t := range m.Taps {
		out[i] = real(t)*real(t) + imag(t)*imag(t)
	}
	return out
}

// tapPower returns the total power of taps, the sum of |tap|^2 (1.0 for
// freshly drawn channels).
func tapPower(taps []complex128) float64 {
	var p float64
	for _, t := range taps {
		p += real(t)*real(t) + imag(t)*imag(t)
	}
	return p
}

// RMSDelaySpread returns the root-mean-square delay spread in taps.
func (m *Multipath) RMSDelaySpread() float64 {
	pdp := m.PowerDelayProfile()
	var p, mean float64
	for i, v := range pdp {
		p += v
		mean += float64(i) * v
	}
	if p == 0 {
		return 0
	}
	mean /= p
	var sq float64
	for i, v := range pdp {
		d := float64(i) - mean
		sq += d * d * v
	}
	return math.Sqrt(sq / p)
}
