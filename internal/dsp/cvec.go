package dsp

import (
	"math"
	"math/cmplx"
)

// Energy returns the total energy sum(|x[i]|^2) of a complex vector.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// MeanPower returns the average per-sample power of x, or 0 for an empty
// slice.
func MeanPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Scale multiplies every element of x by the real factor g in place.
func Scale(x []complex128, g float64) {
	c := complex(g, 0)
	for i := range x {
		x[i] *= c
	}
}

// Rotate applies a continuous phase rotation of freq cycles-per-sample to x
// starting at sample offset start: x[i] *= e^{j*2*pi*freq*(start+i)}.
// It is used to impose or undo carrier frequency offsets.
func Rotate(x []complex128, freq float64, start int) {
	if freq == 0 {
		return
	}
	step := cmplx.Exp(complex(0, 2*math.Pi*freq))
	cur := cmplx.Exp(complex(0, 2*math.Pi*freq*float64(start)))
	for i := range x {
		x[i] *= cur
		cur *= step
		// Renormalize periodically to stop |cur| drifting from 1.
		if i&1023 == 1023 {
			cur /= complex(cmplx.Abs(cur), 0)
		}
	}
}
