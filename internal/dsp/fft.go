// Package dsp provides the digital signal processing primitives used by the
// SourceSync PHY: FFT/IFFT, correlation, fractional delay, phase arithmetic
// and elementary statistics over complex baseband samples.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/engine"
)

// Plan holds the precomputed bit-reversal permutation and twiddle factors
// for a single FFT size. Plans are memoized globally because the PHY uses a
// small set of sizes (64, 128, ...) millions of times; a caller that
// transforms one size many times looks its plan up once with PlanFor.
type Plan struct {
	n       int
	rev     []int
	twiddle []complex128 // e^{-j*2*pi*k/n} for k in [0, n/2)
}

// plans memoizes FFT plans by size.
var plans = engine.NewMemo[int, *Plan]("dsp.fft_plans")

// PlanFor returns the memoized plan of the n-point FFT. n must be a power
// of two.
func PlanFor(n int) *Plan { return plans.Get(n, newPlan) }

func newPlan(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	p := &Plan{n: n, rev: make([]int, n), twiddle: make([]complex128, n/2)}
	shift := 1
	for 1<<shift < n {
		shift++
	}
	for i := 0; i < n; i++ {
		p.rev[i] = reverseBits(i, shift)
	}
	for k := 0; k < n/2; k++ {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = cmplx.Exp(complex(0, angle))
	}
	return p
}

func reverseBits(x, bits int) int {
	r := 0
	for i := 0; i < bits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// FFT computes the forward discrete Fourier transform of src and returns a
// newly allocated result. len(src) must be a power of two.
func FFT(src []complex128) []complex128 {
	dst := make([]complex128, len(src))
	FFTInto(dst, src)
	return dst
}

// IFFT computes the inverse DFT (with 1/N normalization) of src into a newly
// allocated slice.
func IFFT(src []complex128) []complex128 {
	dst := make([]complex128, len(src))
	IFFTInto(dst, src)
	return dst
}

// FFTInto computes the forward DFT of src into dst. dst and src must have the
// same power-of-two length; they may alias.
func FFTInto(dst, src []complex128) {
	p := PlanFor(len(src))
	if len(dst) != len(src) {
		panic("dsp: FFTInto length mismatch")
	}
	if &dst[0] == &src[0] {
		permuteInPlace(dst, p)
	} else {
		for i, r := range p.rev {
			dst[i] = src[r]
		}
	}
	butterflies(dst, p, 2)
}

// IFFTInto computes the inverse DFT of src into dst with 1/N scaling.
func IFFTInto(dst, src []complex128) {
	n := len(src)
	p := PlanFor(n)
	if len(dst) != n {
		panic("dsp: IFFTInto length mismatch")
	}
	// IFFT(x) = conj(FFT(conj(x)))/N.
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	for i := range dst {
		dst[i] = cmplx.Conj(dst[i])
	}
	permuteInPlace(dst, p)
	butterflies(dst, p, 2)
	scale := 1 / float64(n)
	for i := range dst {
		dst[i] = complex(real(dst[i])*scale, -imag(dst[i])*scale)
	}
}

// FFTPrefix computes in place the forward DFT of x[:support] zero-padded
// to len(x): a response drawn from a few channel taps, say. The values in
// x[support:] are ignored and overwritten, so a caller need not clear
// them. len(x) must be the plan's size and 0 <= support <= len(x).
//
// Let L be the least power of two >= support and G = len(x)/L. Bit
// reversal moves sample t < L to slot G*rev_L(t), and every other slot of
// that G-slot block holds a zero, so in each of the first log2(G) stages
// every butterfly's odd operand is an exact zero. With finite twiddles
// 0*w is ±0, and even ± (±0) is even, except perhaps for the sign of a
// zero component. So FFTPrefix zeroes the padding x[support:L], fills
// each block with its sample and runs only the remaining stages: every
// nonzero output component, and so every |x[k]|², has the bits FFTInto
// gives for the zero-padded input; a zero may differ in sign, and a NaN
// stays NaN. For an 802.11 channel (64 points, 5 taps) that is 3 of the
// 6 stages. A support above len(x)/2 zeroes the whole tail and runs the
// whole transform.
func (p *Plan) FFTPrefix(x []complex128, support int) {
	n := p.n
	if len(x) != n {
		panic("dsp: FFTPrefix length mismatch")
	}
	if support < 0 || support > n {
		panic(fmt.Sprintf("dsp: FFTPrefix support %d outside [0, %d]", support, n))
	}
	l := 1
	for l < support {
		l <<= 1
	}
	if 2*l > n {
		clear(x[support:])
		permuteInPlace(x, p)
		butterflies(x, p, 2)
		return
	}
	clear(x[support:l])
	g := n / l
	// Bit-reverse the first l samples among themselves (rev_L(t) is
	// rev_n(t)/G), then spread them from the top down: block r starts at
	// G*r >= r, above every sample not yet spread.
	for t := 0; t < l; t++ {
		if r := p.rev[t] / g; t < r {
			x[t], x[r] = x[r], x[t]
		}
	}
	for r := l - 1; r >= 0; r-- {
		v := x[r]
		block := x[g*r : g*r+g]
		for i := range block {
			block[i] = v
		}
	}
	butterflies(x, p, 2*g)
}

func permuteInPlace(x []complex128, p *Plan) {
	for i, r := range p.rev {
		if i < r {
			x[i], x[r] = x[r], x[i]
		}
	}
}

// butterflies runs the radix-2 stages of sizes first, 2*first, ..., n over
// x, which holds its samples in bit-reversed order. A full transform starts
// at first = 2; FFTPrefix starts later, at the stage its blocks feed.
func butterflies(x []complex128, p *Plan, first int) {
	n := p.n
	for size := first; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				tw += step
				odd := x[k+half] * w
				even := x[k]
				x[k] = even + odd
				x[k+half] = even - odd
			}
		}
	}
}
