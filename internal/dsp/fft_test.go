package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return v
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of an impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	got := FFT(x)
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}

	// DFT of a constant is an impulse of height N at bin 0.
	for i := range x {
		x[i] = 1
	}
	got = FFT(x)
	if cmplx.Abs(got[0]-8) > 1e-12 {
		t.Fatalf("DC bin = %v, want 8", got[0])
	}
	for i := 1; i < len(got); i++ {
		if cmplx.Abs(got[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, got[i])
		}
	}

	// A pure tone at bin k concentrates in bin k.
	n := 64
	k := 5
	tone := make([]complex128, n)
	for i := range tone {
		ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		tone[i] = cmplx.Exp(complex(0, ang))
	}
	got = FFT(tone)
	if cmplx.Abs(got[k]-complex(float64(n), 0)) > 1e-9 {
		t.Fatalf("tone bin %d = %v, want %d", k, got[k], n)
	}
}

func TestFFTRoundTripSizes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 64, 128, 256, 1024} {
		x := randVec(r, n)
		y := IFFT(FFT(x))
		if d := maxDiff(x, y); d > 1e-9 {
			t.Fatalf("n=%d: round trip error %g", n, d)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := randVec(r, 128)
	X := FFT(x)
	et := Energy(x)
	ef := Energy(X) / 128
	if math.Abs(et-ef)/et > 1e-10 {
		t.Fatalf("Parseval violated: time %g freq %g", et, ef)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randVec(rr, 64)
		b := randVec(rr, 64)
		alpha := complex(rr.NormFloat64(), rr.NormFloat64())
		// FFT(alpha*a + b) == alpha*FFT(a) + FFT(b)
		sum := make([]complex128, 64)
		for i := range sum {
			sum[i] = alpha*a[i] + b[i]
		}
		lhs := FFT(sum)
		fa, fb := FFT(a), FFT(b)
		for i := range lhs {
			want := alpha*fa[i] + fb[i]
			if cmplx.Abs(lhs[i]-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTIntoAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := randVec(r, 64)
	want := FFT(x)
	FFTInto(x, x) // in place
	if d := maxDiff(x, want); d > 1e-10 {
		t.Fatalf("in-place FFT differs by %g", d)
	}
	IFFTInto(x, x)
	// x should now be back to the original (round trip).
	y := IFFT(want)
	if d := maxDiff(x, y); d > 1e-10 {
		t.Fatalf("in-place IFFT differs by %g", d)
	}
}

func TestFFTPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non power-of-two size")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestTimeShiftIsPhaseRamp(t *testing.T) {
	// Circularly shifting a signal by d samples multiplies bin k by
	// e^{-j 2 pi k d / N}; PhaseRampDelay must implement exactly this.
	r := rand.New(rand.NewSource(5))
	n := 64
	x := randVec(r, n)
	d := 3
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[(i-d+n)%n]
	}
	want := FFT(shifted)
	got := FFT(x)
	PhaseRampDelay(got, float64(d))
	if diff := maxDiff(got, want); diff > 1e-8 {
		t.Fatalf("phase ramp mismatch %g", diff)
	}
}
