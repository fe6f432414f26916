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
	m.convolveInto(out, x)
	return out
}

// convolveInto writes the first len(out) samples of x convolved with the
// channel into out, which must be no longer than len(x)+len(Taps)-1. Each
// sample sums tap*x in tap order from +0, skipping zero taps and x's
// silent runs: with finite taps a skipped product is ±0, which cannot
// change an accumulator that starts at +0.
func (m *Multipath) convolveInto(out, x []complex128) {
	clear(out)
	spans := nonzeroSpans(x)
	for i, t := range m.Taps {
		if t == 0 {
			continue
		}
		for _, sp := range spans {
			lo, hi := sp[0], min(sp[1], len(out)-i)
			if lo >= hi {
				break
			}
			addScaled(out[i+lo:i+hi], x[lo:hi], t)
		}
	}
}

// addScaled adds t*x[j] to o[j] for every j < len(x) <= len(o). As its
// own function the loop keeps its operands in registers.
func addScaled(o, x []complex128, t complex128) {
	o = o[:len(x)]
	for j, v := range x {
		o[j] += t * v
	}
}

// nonzeroSpans returns the maximal runs [start, end) of nonzero samples of
// x, in order.
func nonzeroSpans(x []complex128) [][2]int {
	n := 0
	for i, v := range x {
		if v != 0 && (i == 0 || x[i-1] == 0) {
			n++
		}
	}
	spans := make([][2]int, 0, n)
	for i, v := range x {
		switch {
		case v == 0:
		case i == 0 || x[i-1] == 0:
			spans = append(spans, [2]int{i, i + 1})
		default:
			spans[len(spans)-1][1] = i + 1
		}
	}
	return spans
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
