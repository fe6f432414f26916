package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func TestRayleighUnitPower(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		m := NewRayleigh(rng, 8, 2.5)
		if p := tapPower(m.Taps); math.Abs(p-1) > 1e-9 {
			t.Fatalf("power = %g, want 1", p)
		}
	}
}

func TestRayleighExponentialProfile(t *testing.T) {
	// Averaged over many draws, tap powers must decay exponentially.
	rng := rand.New(rand.NewSource(2))
	const draws = 4000
	nTaps, decay := 6, 2.0
	avg := make([]float64, nTaps)
	for i := 0; i < draws; i++ {
		m := NewRayleigh(rng, nTaps, decay)
		for j, p := range m.PowerDelayProfile() {
			avg[j] += p / draws
		}
	}
	// Realized-power normalization slightly couples the taps, so allow a
	// loose band around the nominal exponential decay ratio.
	for j := 1; j < nTaps; j++ {
		ratio := avg[j] / avg[j-1]
		want := math.Exp(-1 / decay)
		if math.Abs(ratio-want) > 0.12 {
			t.Fatalf("tap %d/%d power ratio %.3f, want %.3f", j, j-1, ratio, want)
		}
	}
}

func TestRicianKFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const draws = 3000
	k := 6.0 // dB
	var losPower, totalPower float64
	for i := 0; i < draws; i++ {
		m := NewRician(rng, 4, 1.5, k)
		pdp := m.PowerDelayProfile()
		totalPower += tapPower(m.Taps)
		losPower += pdp[0]
	}
	if math.Abs(totalPower/draws-1) > 0.05 {
		t.Fatalf("mean power %g, want 1", totalPower/draws)
	}
	// First tap carries LOS + strongest scatter; with K=6dB the LOS alone
	// is ~0.8 of total power.
	frac := losPower / totalPower
	if frac < 0.7 || frac > 0.95 {
		t.Fatalf("first-tap power fraction %.2f outside Rician expectation", frac)
	}
}

// refRayleigh and refRician are the channel draws as written before they
// shared drawTaps, kept as the reference the constructors must match bit
// for bit.
func refRayleigh(rng *rand.Rand, nTaps int, decayTaps float64) *Multipath {
	if nTaps < 1 {
		nTaps = 1
	}
	taps := make([]complex128, nTaps)
	for i := range taps {
		p := math.Exp(-float64(i) / math.Max(decayTaps, 1e-9))
		g := math.Sqrt(p / 2)
		taps[i] = complex(rng.NormFloat64()*g, rng.NormFloat64()*g)
	}
	m := &Multipath{Taps: taps}
	norm := 1 / math.Sqrt(refPower(m))
	for i := range taps {
		taps[i] *= complex(norm, 0)
	}
	return m
}

func refRician(rng *rand.Rand, nTaps int, decayTaps, kFactorDB float64) *Multipath {
	m := refRayleigh(rng, nTaps, decayTaps)
	k := dsp.FromDB(kFactorDB)
	scatter := 1 / (1 + k)
	los := k / (1 + k)
	s := math.Sqrt(scatter)
	for i := range m.Taps {
		m.Taps[i] *= complex(s, 0)
	}
	phase := rng.Float64() * 2 * math.Pi
	m.Taps[0] += cmplx.Rect(math.Sqrt(los), phase)
	norm := complex(1/math.Sqrt(refPower(m)), 0)
	for i := range m.Taps {
		m.Taps[i] *= norm
	}
	return m
}

func refPower(m *Multipath) float64 {
	var p float64
	for _, v := range m.PowerDelayProfile() {
		p += v
	}
	return p
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func TestDrawsMatchReference(t *testing.T) {
	fast, ref := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		nTaps, decay, k := i%12, float64(i%7)/2, float64(i%5)*3-3
		if got, want := NewRayleigh(fast, nTaps, decay), refRayleigh(ref, nTaps, decay); !sameBits(got.Taps, want.Taps) {
			t.Fatalf("NewRayleigh(%d, %g) draw %d: %v, reference %v", nTaps, decay, i, got.Taps, want.Taps)
		}
		if got, want := NewRician(fast, nTaps, decay, k), refRician(ref, nTaps, decay, k); !sameBits(got.Taps, want.Taps) {
			t.Fatalf("NewRician(%d, %g, %g) draw %d: %v, reference %v", nTaps, decay, k, i, got.Taps, want.Taps)
		}
	}
	if fast.Int63() != ref.Int63() {
		t.Fatal("RNG positions diverged")
	}
}

func TestIndoorResponseMatchesFreqResponse(t *testing.T) {
	// 20 and 128 MHz at 50 ns are the two shipped profiles' channels (5 and
	// 27 taps); 200 ns at 20 MHz on an 8-point grid has more taps (17) than
	// grid points, which FreqResponse truncates.
	cases := []struct {
		fs, spreadNs float64
		nfft         int
	}{{20e6, 50, 64}, {128e6, 50, 128}, {20e6, 200, 8}, {20e6, -10, 4}}
	for _, c := range cases {
		for _, k := range []float64{0, 6} {
			fast, ref := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			h := make([]complex128, c.nfft)
			for i := 0; i < 50; i++ {
				IndoorResponse(fast, h, c.fs, c.spreadNs, k)
				want := NewIndoor(ref, c.fs, c.spreadNs, k).FreqResponse(c.nfft)
				if !sameBits(h, want) {
					t.Fatalf("fs %g, spread %g ns, K %g dB, nfft %d, draw %d: %v, reference %v", c.fs, c.spreadNs, k, c.nfft, i, h, want)
				}
			}
			if fast.Int63() != ref.Int63() {
				t.Fatalf("fs %g, spread %g ns, K %g dB: RNG positions diverged", c.fs, c.spreadNs, k)
			}
		}
	}
}

// TestApplyMatchesDirectConvolution sums each output sample directly, in
// tap order from zero, and requires the same bits from Apply: over
// channels with zero taps and inputs with silent runs too, whose skipped
// products are ±0.
func TestApplyMatchesDirectConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for c := 0; c < 60; c++ {
		m := NewRayleigh(rng, 5, 2)
		x := make([]complex128, 40)
		if c > 0 {
			m = NewRayleigh(rng, 1+rng.Intn(17), 4)
			if rng.Intn(2) == 0 {
				m.Taps[rng.Intn(len(m.Taps))] = 0
			}
			x = make([]complex128, 1+rng.Intn(600))
		}
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if c > 0 {
			silentRuns(rng, x, rng.Intn(5))
		}
		got := m.Apply(x)
		if len(got) != len(x)+len(m.Taps)-1 {
			t.Fatalf("case %d: conv length %d", c, len(got))
		}
		want := make([]complex128, len(got))
		for n := range want {
			for k, tap := range m.Taps {
				if j := n - k; j >= 0 && j < len(x) {
					want[n] += tap * x[j]
				}
			}
		}
		if !sameBits(got, want) {
			t.Fatalf("case %d: Apply differs from the direct convolution", c)
		}
	}
}

func TestFreqResponseMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewRayleigh(rng, 7, 2)
	h := m.FreqResponse(64)
	padded := make([]complex128, 64)
	copy(padded, m.Taps)
	want := dsp.FFT(padded)
	for i := range h {
		if cmplx.Abs(h[i]-want[i]) > 1e-10 {
			t.Fatalf("bin %d mismatch", i)
		}
	}
}

func TestRMSDelaySpread(t *testing.T) {
	// Single tap: zero spread. Two equal taps at 0 and 2: spread 1.
	if s := Flat().RMSDelaySpread(); s != 0 {
		t.Fatalf("flat spread %g", s)
	}
	m := &Multipath{Taps: []complex128{1, 0, 1}}
	if s := m.RMSDelaySpread(); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread %g, want 1", s)
	}
}

func TestNewIndoorSpreadScalesWithRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var spread128, spread20 float64
	const draws = 300
	for i := 0; i < draws; i++ {
		spread128 += NewIndoor(rng, 128e6, 40, 0).RMSDelaySpread() / draws
		spread20 += NewIndoor(rng, 20e6, 40, 0).RMSDelaySpread() / draws
	}
	// 40ns at 128 MHz is ~5.1 samples, at 20 MHz ~0.8 samples.
	if spread128 < 3 || spread128 > 8 {
		t.Fatalf("128 MHz spread %.2f taps", spread128)
	}
	if spread20 > 2 {
		t.Fatalf("20 MHz spread %.2f taps", spread20)
	}
}

func TestMixSuperposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w1 := []complex128{1, 2, 3}
	w2 := []complex128{5, 6}
	e1 := Emission{Wave: w1, Start: 2}
	e2 := Emission{Wave: w2, Start: 4}
	got := Mix(rng, 8, 0, 0, e1, e2)
	want := []complex128{0, 0, 1, 2, 3 + 5, 6, 0, 0}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("sample %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestMixGainAndPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := []complex128{1}
	e := Emission{Wave: w, Start: 0, Gain: 0.5, Phase: math.Pi / 2}
	got := Mix(rng, 1, 0, 0, e)
	want := complex(0, 0.5)
	if cmplx.Abs(got[0]-want) > 1e-12 {
		t.Fatalf("got %v want %v", got[0], want)
	}
}

func TestMixCFORotatesOverAbsoluteTime(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := []complex128{1, 1, 1, 1}
	cfo := 0.01
	// Render the same emission in two windows with different origins; the
	// rotation must depend on absolute sample index, not buffer index.
	e := Emission{Wave: w, Start: 100, CFO: cfo}
	a := Mix(rng, 110, 0, 0, e)
	b := Mix(rng, 10, 100, 0, e)
	for i := 0; i < 4; i++ {
		if cmplx.Abs(a[100+i]-b[i]) > 1e-9 {
			t.Fatalf("origin dependence at %d: %v vs %v", i, a[100+i], b[i])
		}
		wantPhase := 2 * math.Pi * cfo * float64(100+i)
		if math.Abs(dsp.WrapPhase(cmplx.Phase(b[i])-wantPhase)) > 1e-9 {
			t.Fatalf("phase at %d wrong", i)
		}
	}
}

func TestMixFractionalStartShiftsSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// A smooth pulse delayed by 0.5 samples should land "between" samples:
	// equal energy split around the peak.
	w := make([]complex128, 33)
	for i := range w {
		x := float64(i-16) / 4
		w[i] = complex(math.Exp(-x*x), 0)
	}
	whole := Mix(rng, 64, 0, 0, Emission{Wave: w, Start: 10})
	half := Mix(rng, 64, 0, 0, Emission{Wave: w, Start: 10.5})
	pw, ph := peakMag(whole), peakMag(half)
	if pw != 26 {
		t.Fatalf("whole-delay peak at %d, want 26", pw)
	}
	if ph != 26 && ph != 27 {
		t.Fatalf("half-delay peak at %d, want 26 or 27", ph)
	}
	// The two samples around the true peak must be nearly equal for the
	// half-sample shift.
	va, vb := cmplx.Abs(half[26]), cmplx.Abs(half[27])
	if math.Abs(va-vb)/va > 0.05 {
		t.Fatalf("half-sample shift not centered: %g vs %g", va, vb)
	}
}

func TestMixRejectsEarlyEmission(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for emission before window")
		}
	}()
	rng := rand.New(rand.NewSource(11))
	Mix(rng, 10, 100, 0, Emission{Wave: []complex128{1}, Start: 50})
}

func TestMixNoisePower(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	got := Mix(rng, 20000, 0, 0.25)
	if p := dsp.MeanPower(got); math.Abs(p-0.25) > 0.01 {
		t.Fatalf("noise power %g, want 0.25", p)
	}
}

func TestPathLossMonotoneProperty(t *testing.T) {
	p := DefaultIndoor()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d1 := 1 + r.Float64()*30
		d2 := d1 + r.Float64()*30
		return p.LossDB(d2, nil) >= p.LossDB(d1, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPathLossShadowingStatistics(t *testing.T) {
	p := DefaultIndoor()
	rng := rand.New(rand.NewSource(13))
	var vals []float64
	for i := 0; i < 2000; i++ {
		vals = append(vals, p.LossDB(10, rng))
	}
	med := p.LossDB(10, nil)
	if math.Abs(dsp.Mean(vals)-med) > 0.5 {
		t.Fatalf("shadowing mean %.2f, want ~%.2f", dsp.Mean(vals), med)
	}
	if s := dsp.StdDev(vals); math.Abs(s-p.ShadowSigma) > 0.5 {
		t.Fatalf("shadowing sigma %.2f, want %.2f", s, p.ShadowSigma)
	}
}

func TestLinkBudgetHelpers(t *testing.T) {
	// 3 m at 20 Msps is ~0.2 samples.
	d := PropagationDelaySamples(3, 20e6)
	if math.Abs(d-0.2) > 0.01 {
		t.Fatalf("delay %g samples", d)
	}
	nf := NoiseFloorDBm(20e6, 7)
	if math.Abs(nf-(-94)) > 1 {
		t.Fatalf("noise floor %.1f dBm", nf)
	}
	snr := SNRFromBudget(15, 80, -94)
	if math.Abs(snr-29) > 1e-9 {
		t.Fatalf("snr %.1f", snr)
	}
	cfo := PPMToCFO(20, 5.8e9, 20e6)
	if math.Abs(cfo-5.8e-3) > 1e-6 {
		t.Fatalf("cfo %g", cfo)
	}
}

// peakMag returns the first index of x's largest magnitude.
func peakMag(x []complex128) int {
	best := 0
	for i, v := range x {
		if cmplx.Abs(v) > cmplx.Abs(x[best]) {
			best = i
		}
	}
	return best
}
