package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestDelaySamplesInteger(t *testing.T) {
	x := []complex128{1, 2, 3}
	got := DelaySamples(x, 2, 8)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	if got[0] != 0 || got[1] != 0 || got[2] != 1 || got[4] != 3 {
		t.Fatalf("integer delay wrong: %v", got)
	}
}

func TestDelaySamplesFractionalPhaseSlope(t *testing.T) {
	// Delay a band-limited tone by 0.5 samples and verify via the analytic
	// phase of the tone that the effective delay is close to 0.5.
	n := 256
	binIdx := 4.0 // low-frequency tone, well within filter passband
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * binIdx * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ang))
	}
	d := 0.5
	y := DelaySamples(x, d, 16)
	// Compare phase of y against x in the steady-state middle region.
	var phaseDiff float64
	count := 0
	for i := 64; i < 192; i++ {
		ph := cmplx.Phase(y[i] * cmplx.Conj(x[i]))
		phaseDiff += ph
		count++
	}
	phaseDiff /= float64(count)
	// Expected phase shift: -2*pi*f*d where f = binIdx/n cycles/sample.
	want := -2 * math.Pi * (binIdx / float64(n)) * d
	if math.Abs(phaseDiff-want) > 1e-3 {
		t.Fatalf("fractional delay phase = %g, want %g", phaseDiff, want)
	}
}

func TestDelaySamplesPreservesEnergy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Use a smooth (oversampled) random signal: white noise is at the edge
	// of the interpolation filter's band where ripple is expected.
	n := 512
	x := make([]complex128, n)
	for i := range x {
		ang := 2*math.Pi*0.05*float64(i) + r.NormFloat64()*0.01
		x[i] = cmplx.Exp(complex(0, ang))
	}
	y := DelaySamples(x, 3.37, 16)
	ex, ey := Energy(x), Energy(y)
	if math.Abs(ex-ey)/ex > 0.02 {
		t.Fatalf("energy changed: %g -> %g", ex, ey)
	}
}

func TestDelaySamplesNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	DelaySamples([]complex128{1}, -1, 8)
}

func TestPhaseRampDelayFractional(t *testing.T) {
	// A fractional phase-ramp delay then its inverse is the identity.
	r := rand.New(rand.NewSource(8))
	x := randVec(r, 64)
	y := append([]complex128(nil), x...)
	PhaseRampDelay(y, 0.37)
	PhaseRampDelay(y, -0.37)
	if d := maxDiff(x, y); d > 1e-10 {
		t.Fatalf("ramp inverse mismatch %g", d)
	}
}

// DelaySamples delays waveform x by a (possibly fractional) number of
// samples. The integer part is realized by prepending zeros; the fractional
// part by FracDelayTaps' filter with the given number of taps per side
// (total 2*side+1 taps). The returned slice is longer than x by the
// integer delay plus the filter's tail.
func DelaySamples(x []complex128, delay float64, side int) []complex128 {
	if delay < 0 {
		panic("dsp: negative delay")
	}
	ip := int(math.Floor(delay))
	frac := delay - float64(ip)
	var filtered []complex128
	if frac < 1e-9 {
		filtered = x
	} else {
		filtered = fracDelayFilter(x, frac, side)
	}
	out := make([]complex128, ip+len(filtered))
	copy(out[ip:], filtered)
	return out
}

// fracDelayFilter applies FracDelayTaps' filter for a delay of frac
// (0 < frac < 1) samples. The output has len(x)+side samples: the
// filter's own side samples of group delay are dropped, so the signal
// within the returned slice is shifted by frac.
func fracDelayFilter(x []complex128, frac float64, side int) []complex128 {
	taps := FracDelayTaps(nil, frac, side)
	out := make([]complex128, len(x)+2*side)
	for i, v := range x {
		for j, t := range taps {
			out[i+j] += v * complex(t, 0)
		}
	}
	return out[side:]
}
