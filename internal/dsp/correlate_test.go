package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestCrossCorrelateFindsEmbeddedReference(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ref := randVec(r, 32)
	x := make([]complex128, 200)
	for i := range x {
		x[i] = complex(r.NormFloat64()*0.1, r.NormFloat64()*0.1)
	}
	at := 77
	for i, v := range ref {
		x[at+i] += v
	}
	corr := CrossCorrelate(x, ref)
	idx, peak := PeakIndex(corr)
	if idx != at {
		t.Fatalf("peak at %d, want %d", idx, at)
	}
	if peak < 0.9 {
		t.Fatalf("peak %g too weak", peak)
	}
}

func TestCrossCorrelatePerfectMatchIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ref := randVec(r, 16)
	corr := CrossCorrelate(ref, ref)
	if len(corr) != 1 {
		t.Fatalf("len = %d", len(corr))
	}
	if corr[0] < 0.999999 || corr[0] > 1.000001 {
		t.Fatalf("self correlation = %g, want 1", corr[0])
	}
}

func TestAutoCorrRatioDetectsPeriodicity(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	period := 16
	// Build noise, then a periodic section of 5 periods.
	x := randVec(r, 64)
	Scale(x, 0.05)
	rep := randVec(r, period)
	for k := 0; k < 5; k++ {
		x = append(x, rep...)
	}
	x = append(x, randVecScaled(r, 64, 0.05)...)
	m := AutoCorrRatio(x, period, 2*period)
	// The metric should approach 1 inside the periodic run (starting near
	// sample 64) and stay small in the leading noise.
	inside := m[70]
	outside := m[5]
	if inside < 0.8 {
		t.Fatalf("metric inside periodic region = %g, want > 0.8", inside)
	}
	if outside > 0.5 {
		t.Fatalf("metric in noise = %g, want < 0.5", outside)
	}
}

func TestDoubleSlidingWindowRisesAtPacketStart(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	noise := randVecScaled(r, 128, 0.05)
	signal := randVec(r, 128)
	x := append(noise, signal...)
	ratio := DoubleSlidingWindow(x, 16)
	// Just before the boundary the after-window holds signal, before-window
	// noise, so the ratio must spike far above 1.
	peakIdx, peak := PeakIndex(ratio)
	if peak < 10 {
		t.Fatalf("peak ratio %g too small", peak)
	}
	if peakIdx < 128-20 || peakIdx > 128 {
		t.Fatalf("peak at %d, want near 112..128", peakIdx)
	}
}

func randVecScaled(r *rand.Rand, n int, s float64) []complex128 {
	v := randVec(r, n)
	Scale(v, s)
	return v
}

// CrossCorrelate computes the normalized cross-correlation magnitude of x
// against the reference sequence ref at every lag in [0, len(x)-len(ref)].
// The result at lag k is |sum(x[k+i]*conj(ref[i]))| / sqrt(E_ref * E_window),
// which is 1.0 for a perfect scaled match and near 0 for noise. It is the
// reference CorrelationPeak is held to, bit for bit.
func CrossCorrelate(x, ref []complex128) []float64 {
	n := len(x) - len(ref) + 1
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	eRef := Energy(ref)
	if eRef == 0 {
		return out
	}
	for k := 0; k < n; k++ {
		var acc complex128
		var eWin float64
		for i, r := range ref {
			v := x[k+i]
			acc += v * cmplx.Conj(r)
			eWin += real(v)*real(v) + imag(v)*imag(v)
		}
		if eWin == 0 {
			continue
		}
		den := eRef * eWin
		out[k] = cmplx.Abs(acc) / sqrt(den)
	}
	return out
}

// PeakIndex returns the index of the maximum value of x and that value. It
// returns (-1, 0) for an empty slice.
func PeakIndex(x []float64) (int, float64) {
	if len(x) == 0 {
		return -1, 0
	}
	best, bestV := 0, x[0]
	for i, v := range x {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// AutoCorrRatio computes, for each sample offset, the Schmidl–Cox style
// metric |sum(x[d+i]*conj(x[d+i+lag]))|^2 / (sum |x[d+i+lag]|^2)^2 over a
// window of win samples, over the whole stream: the reference AutoCorr
// is held to.
func AutoCorrRatio(x []complex128, lag, win int) []float64 {
	n := len(x) - lag - win
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	var p complex128
	var r float64
	// Initialize window at d = 0.
	for i := 0; i < win; i++ {
		p += x[i] * cmplx.Conj(x[i+lag])
		r += sqmag(x[i+lag])
	}
	for d := 0; d < n; d++ {
		if r > 1e-30 {
			m := cmplx.Abs(p)
			out[d] = m * m / (r * r)
		}
		// Slide the window by one sample.
		if d+1 < n {
			p -= x[d] * cmplx.Conj(x[d+lag])
			p += x[d+win] * cmplx.Conj(x[d+win+lag])
			r -= sqmag(x[d+lag])
			r += sqmag(x[d+win+lag])
			if r < 0 {
				r = 0
			}
		}
	}
	return out
}

// DoubleSlidingWindow computes the ratio of energy in the window of w samples
// after each index to the energy in the w samples before it, over the whole
// stream: the reference EnergyRatio is held to.
func DoubleSlidingWindow(x []complex128, w int) []float64 {
	n := len(x) - 2*w
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	var before, after float64
	for i := 0; i < w; i++ {
		before += sqmag(x[i])
		after += sqmag(x[i+w])
	}
	for d := 0; d < n; d++ {
		if before > 1e-30 {
			out[d] = after / before
		} else {
			out[d] = 0
		}
		if d+1 < n {
			before += sqmag(x[d+w]) - sqmag(x[d])
			after += sqmag(x[d+2*w]) - sqmag(x[d+w])
			if before < 0 {
				before = 0
			}
			if after < 0 {
				after = 0
			}
		}
	}
	return out
}

// checkPeak fails t unless CorrelationPeak agrees with the reference argmax
// of CrossCorrelate for a template built for streams of maxLen samples.
func checkPeak(t *testing.T, name string, x, ref []complex128, maxLen int) {
	t.Helper()
	want, _ := PeakIndex(CrossCorrelate(x, ref))
	if got := CorrelationPeak(x, NewTemplate(ref, maxLen)); got != want {
		t.Fatalf("%s: CorrelationPeak = %d, reference argmax %d (len(x) %d, len(ref) %d, maxLen %d)",
			name, got, want, len(x), len(ref), maxLen)
	}
}

// embed returns noise of power noiseP with scale*ref added at lag at.
func embed(r *rand.Rand, n int, noiseP float64, ref []complex128, at int, scale complex128) []complex128 {
	x := randVecScaled(r, n, math.Sqrt(noiseP/2))
	for i, v := range ref {
		x[at+i] += scale * v
	}
	return x
}

func TestCorrelationPeakMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	cases := 400
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		refLen := 1 + r.Intn(96)
		n := refLen + r.Intn(400)
		ref := randVec(r, refLen)
		noiseP := math.Pow(10, -4+5*r.Float64())
		x := embed(r, n, noiseP, ref, r.Intn(n-refLen+1), complex(r.NormFloat64(), r.NormFloat64()))
		// A second, weaker or equal copy makes near-ties.
		if r.Intn(2) == 0 {
			k := r.Intn(n - refLen + 1)
			s := complex(1+1e-12*r.NormFloat64(), 1e-12*r.NormFloat64())
			for i, v := range ref {
				x[k+i] += s * v
			}
		}
		// Silent stretches: exact zeros across whole windows.
		if r.Intn(3) == 0 {
			a := r.Intn(n)
			clear(x[a:min(n, a+r.Intn(2*refLen+1))])
		}
		maxLen := []int{1, n / 2, n, 4 * n}[r.Intn(4)]
		checkPeak(t, fmt.Sprintf("case %d", c), x, ref, maxLen)
	}
}

func TestCorrelationPeakEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	ref := randVec(r, 24)
	noise := func(n int) []complex128 { return randVecScaled(r, n, 0.05) }
	cat := func(parts ...[]complex128) []complex128 {
		var out []complex128
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	scaled := func(x []complex128, s complex128) []complex128 {
		out := make([]complex128, len(x))
		for i, v := range x {
			out[i] = s * v
		}
		return out
	}
	if got := CorrelationPeak(ref[:10], NewTemplate(ref, 10)); got != -1 {
		t.Fatalf("short stream: %d, want -1", got)
	}
	// Exact ties: identical windows sum to identical bits; the first wins.
	tie := cat(noise(5), ref, noise(7), ref, noise(3))
	if got := CorrelationPeak(tie, NewTemplate(ref, len(tie))); got != 5 {
		t.Fatalf("exact tie: %d, want 5", got)
	}
	nan := cat(noise(9), ref, noise(9))
	nan[3] = complex(math.NaN(), 0)
	inf := cat(noise(9), ref, noise(9))
	inf[30] = complex(0, math.Inf(-1))
	zeroRef := make([]complex128, 24)
	for _, tc := range []struct {
		name   string
		x, ref []complex128
	}{
		{"exact tie", tie, ref},
		{"periodic stream", cat(ref, ref, ref, ref), ref},
		{"scaled copies", cat(noise(4), scaled(ref, 1.1), noise(6), ref, noise(2), scaled(ref, 0.3+0.7i)), ref},
		{"noiseless copy in silence", cat(make([]complex128, 40), ref, make([]complex128, 40)), ref},
		{"all zero", make([]complex128, 100), ref},
		{"zero ref", noise(60), zeroRef},
		{"one sample ref", noise(60), ref[:1]},
		{"x equals ref", ref, ref},
		{"NaN sample", nan, ref},
		{"Inf sample", inf, ref},
		{"tiny", scaled(cat(noise(20), ref, noise(20)), 1e-150), ref},
		{"huge", scaled(cat(noise(20), ref, noise(20)), 1e150), ref},
		{"tiny ref", cat(noise(20), ref, noise(20)), scaled(ref, 1e-150)},
		{"huge ref", cat(noise(20), ref, noise(20)), scaled(ref, 1e150)},
		{"mixed scales", cat(scaled(noise(20), 1e-100), ref, scaled(noise(20), 1e100)), ref},
		// The peak sits in a window far below the energy margin.
		{"faint copy beside a loud burst", cat(scaled(noise(40), 1e6), make([]complex128, 5), scaled(ref, 1e-4), make([]complex128, 5)), ref},
	} {
		for _, maxLen := range []int{1, len(tc.x), 1 << 12} {
			checkPeak(t, tc.name, tc.x, tc.ref, maxLen)
		}
	}
}

// TestCorrelationPeakSumsFewLags holds the bracket to its purpose: over
// WiGLAN-sized fine-timing searches (a 320-sample reference, 1,024 lags)
// at 0 to 30 dB SNR, only lags within the margin of the peak are summed.
func TestCorrelationPeakSumsFewLags(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ref := randVec(r, 320)
	tmpl := NewTemplate(ref, 1344)
	const searches = 50
	summed := 0
	for s := 0; s < searches; s++ {
		snr := math.Pow(10, 3*r.Float64())
		x := embed(r, 1344, 2/snr, ref, r.Intn(1025), 1)
		n := len(x) - len(ref) + 1
		keep := tmpl.bracket(x, n)
		if keep == nil {
			t.Fatalf("search %d: bracket refused an ordinary stream", s)
		}
		for k := 0; k < n; k++ {
			if keep(k) {
				summed++
			}
		}
	}
	if summed > 2*searches {
		t.Fatalf("%d lags summed over %d searches, want at most %d", summed, searches, 2*searches)
	}
}

// FuzzCorrelationPeak checks CorrelationPeak against the reference argmax
// on arbitrary samples. data[0] sets len(ref) (1..64), data[1] the
// template's stream length (8 per unit; 0 means 1), and the rest are
// little-endian float64 (real, imag) pairs: the first len(ref) form ref,
// the others x.
func FuzzCorrelationPeak(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		refLen := 1 + int(data[0])%64
		maxLen := max(8*int(data[1]), 1)
		var samples []complex128
		for rest := data[2:]; len(rest) >= 16 && len(samples) < 1024; rest = rest[16:] {
			samples = append(samples, complex(
				math.Float64frombits(binary.LittleEndian.Uint64(rest)),
				math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))))
		}
		if len(samples) < refLen {
			return
		}
		checkPeak(t, "fuzz", samples[refLen:], samples[:refLen], maxLen)
	})
}

func TestEnergyRatioMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for c := 0; c < 50; c++ {
		x := randVecScaled(r, 1+r.Intn(300), math.Pow(10, -3+4*r.Float64()))
		if r.Intn(2) == 0 {
			a := r.Intn(len(x))
			clear(x[a:min(len(x), a+r.Intn(64))])
		}
		w := 1 + r.Intn(40)
		want := DoubleSlidingWindow(x, w)
		full, skip := NewEnergyRatio(x, w), NewEnergyRatio(x, w)
		if full.Len() != len(want) {
			t.Fatalf("case %d: Len %d, want %d", c, full.Len(), len(want))
		}
		for d := range want {
			if got := full.At(d); math.Float64bits(got) != math.Float64bits(want[d]) {
				t.Fatalf("case %d: At(%d) = %v, reference %v", c, d, got, want[d])
			}
		}
		for d := r.Intn(8); d < len(want); d += 1 + r.Intn(8) {
			if got := skip.At(d); math.Float64bits(got) != math.Float64bits(want[d]) {
				t.Fatalf("case %d: skipping At(%d) = %v, reference %v", c, d, got, want[d])
			}
		}
	}
}

func TestAutoCorrMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for c := 0; c < 50; c++ {
		x := randVecScaled(r, 1+r.Intn(300), math.Pow(10, -3+4*r.Float64()))
		if r.Intn(2) == 0 {
			a := r.Intn(len(x))
			clear(x[a:min(len(x), a+r.Intn(64))])
		}
		lag, win := 1+r.Intn(32), 1+r.Intn(64)
		want := AutoCorrRatio(x, lag, win)
		full, skip := NewAutoCorr(x, lag, win), NewAutoCorr(x, lag, win)
		if full.Len() != len(want) {
			t.Fatalf("case %d: Len %d, want %d", c, full.Len(), len(want))
		}
		for d := range want {
			if got := full.At(d); math.Float64bits(got) != math.Float64bits(want[d]) {
				t.Fatalf("case %d: At(%d) = %v, reference %v", c, d, got, want[d])
			}
		}
		for d := r.Intn(8); d < len(want); d += 1 + r.Intn(8) {
			if got := skip.At(d); math.Float64bits(got) != math.Float64bits(want[d]) {
				t.Fatalf("case %d: skipping At(%d) = %v, reference %v", c, d, got, want[d])
			}
		}
	}
}
