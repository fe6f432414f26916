// Package dsp provides the digital signal processing primitives used by the
// SourceSync PHY: FFT/IFFT, correlation, fractional delay, phase arithmetic
// and elementary statistics over complex baseband samples.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// plan holds the precomputed bit-reversal permutation and twiddle factors for
// a single FFT size. Plans are cached globally because the PHY uses a small
// set of sizes (64, 128, ...) millions of times.
type plan struct {
	n       int
	rev     []int
	twiddle []complex128 // e^{-j*2*pi*k/n} for k in [0, n/2)
}

var (
	planMu    sync.Mutex //sslint:allow detgoroutine guards the FFT plan memo; a plan is a pure function of n, so lock order cannot reach output
	planCache = map[int]*plan{}
)

func getPlan(n int) *plan {
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := planCache[n]; ok {
		return p
	}
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	p := &plan{n: n, rev: make([]int, n), twiddle: make([]complex128, n/2)}
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
	planCache[n] = p
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
	p := getPlan(len(src))
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
	butterflies(dst, p)
}

// IFFTInto computes the inverse DFT of src into dst with 1/N scaling.
func IFFTInto(dst, src []complex128) {
	n := len(src)
	p := getPlan(n)
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
	butterflies(dst, p)
	scale := 1 / float64(n)
	for i := range dst {
		dst[i] = complex(real(dst[i])*scale, -imag(dst[i])*scale)
	}
}

func permuteInPlace(x []complex128, p *plan) {
	for i, r := range p.rev {
		if i < r {
			x[i], x[r] = x[r], x[i]
		}
	}
}

func butterflies(x []complex128, p *plan) {
	n := p.n
	for size := 2; size <= n; size <<= 1 {
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
