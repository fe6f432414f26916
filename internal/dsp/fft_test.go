package dsp

import (
	"encoding/binary"
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

// prefixFamilies are the sample families that TestFFTPrefixMatchesFFTInto
// puts inside FFTPrefix's support (and, mixed, past it), and that
// FuzzFFTPrefix's seed corpus (testdata/fuzz/FuzzFFTPrefix) holds: finite,
// zero-signed, subnormal, extreme and non-finite components, the values
// whose bits a skipped butterfly could change.
var prefixFamilies = []struct {
	name   string
	sample func(r *rand.Rand, i int) complex128
}{
	{"normal", func(r *rand.Rand, _ int) complex128 {
		return complex(r.NormFloat64(), r.NormFloat64())
	}},
	{"zero-real-or-imag", func(r *rand.Rand, i int) complex128 {
		if i%2 == 0 {
			return complex(0, r.NormFloat64())
		}
		return complex(r.NormFloat64(), 0)
	}},
	{"signed-zeros", func(r *rand.Rand, _ int) complex128 {
		return complex(signedZeroOr(r, r.NormFloat64()), signedZeroOr(r, r.NormFloat64()))
	}},
	{"subnormal", func(r *rand.Rand, _ int) complex128 {
		sub := func() float64 {
			if r.Intn(2) == 0 {
				return r.NormFloat64()
			}
			return math.Float64frombits(r.Uint64() & (1<<63 | 1<<52 - 1))
		}
		return complex(sub(), sub())
	}},
	{"huge-1e300", func(r *rand.Rand, _ int) complex128 {
		return complex(1e300*r.NormFloat64(), 1e300*r.NormFloat64())
	}},
	{"tiny-1e-300", func(r *rand.Rand, _ int) complex128 {
		return complex(1e-300*r.NormFloat64(), 1e-300*r.NormFloat64())
	}},
	{"inf", func(r *rand.Rand, _ int) complex128 {
		inf := func() float64 {
			if r.Intn(4) == 0 {
				return math.Inf(1 - 2*r.Intn(2))
			}
			return r.NormFloat64()
		}
		return complex(inf(), inf())
	}},
	{"nan", func(r *rand.Rand, _ int) complex128 {
		nan := func() float64 {
			if r.Intn(4) == 0 {
				return math.NaN()
			}
			return r.NormFloat64()
		}
		return complex(nan(), nan())
	}},
}

// signedZeroOr returns +0 or -0 with probability 1/4 each, else v.
func signedZeroOr(r *rand.Rand, v float64) float64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return v
}

// prefixComponentOK reports whether FFTPrefix's output component got may
// stand for FFTInto's want: the same bits, both zero (a skipped butterfly
// may flip the sign of a zero), or both NaN.
func prefixComponentOK(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) ||
		got == 0 && want == 0 ||
		math.IsNaN(got) && math.IsNaN(want)
}

// checkPrefix runs FFTPrefix over a copy of x, whose values from support
// on are arbitrary (FFTPrefix must ignore them), and holds every output
// component to FFTInto's over x[:support] zero-padded; got and want are
// buffers of len(x) it writes.
func checkPrefix(t *testing.T, name string, x []complex128, support int, got, want []complex128) {
	t.Helper()
	copy(want, x[:support])
	clear(want[support:])
	FFTInto(want, want)
	copy(got, x)
	PlanFor(len(x)).FFTPrefix(got, support)
	for k := range want {
		if !prefixComponentOK(real(got[k]), real(want[k])) || !prefixComponentOK(imag(got[k]), imag(want[k])) {
			t.Fatalf("%s: n %d, support %d, bin %d: %v, FFTInto %v", name, len(x), support, k, got[k], want[k])
		}
	}
}

func TestFFTPrefixMatchesFFTInto(t *testing.T) {
	// Past the support sit values drawn from every family in turn, NaN and
	// ±Inf included: FFTPrefix must ignore them.
	for fi, fam := range prefixFamilies {
		t.Run(fam.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(30 + fi)))
			for n := 1; n <= 1024; n <<= 1 {
				samples, junk := make([]complex128, n), make([]complex128, n)
				for i := range samples {
					samples[i] = fam.sample(r, i)
					junk[i] = prefixFamilies[(fi+i)%len(prefixFamilies)].sample(r, i)
				}
				x, got, want := make([]complex128, n), make([]complex128, n), make([]complex128, n)
				for support := 0; support <= n; support++ {
					copy(x, samples[:support])
					copy(x[support:], junk[support:])
					checkPrefix(t, fam.name, x, support, got, want)
				}
			}
		})
	}
}

func TestFFTPrefixPanicsOnBadArguments(t *testing.T) {
	p := PlanFor(64)
	for _, c := range []struct {
		name    string
		n       int
		support int
	}{{"short", 32, 5}, {"long", 128, 5}, {"negative-support", 64, -1}, {"support-past-n", 64, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FFTPrefix(len %d, support %d) did not panic", c.name, c.n, c.support)
				}
			}()
			p.FFTPrefix(make([]complex128, c.n), c.support)
		}()
	}
}

// FuzzFFTPrefix holds FFTPrefix to FFTInto on arbitrary samples. data[0]
// sets n = 2^(data[0]%11), data[1:3] (little endian) the support modulo
// n+1, and the rest are little-endian float64 (real, imag) pairs, the
// samples in order: those inside the support are transformed, those past
// it are values FFTPrefix must ignore. Samples the data runs out of are
// zero.
func FuzzFFTPrefix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 << (data[0] % 11)
		support := int(binary.LittleEndian.Uint16(data[1:])) % (n + 1)
		x := make([]complex128, n)
		for i, rest := 0, data[3:]; i < n && len(rest) >= 16; i, rest = i+1, rest[16:] {
			x[i] = complex(
				math.Float64frombits(binary.LittleEndian.Uint64(rest)),
				math.Float64frombits(binary.LittleEndian.Uint64(rest[8:])))
		}
		checkPrefix(t, "fuzz", x, support, make([]complex128, n), make([]complex128, n))
	})
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
