package permodel

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
)

func TestUncodedBERKnownValues(t *testing.T) {
	// BPSK at 9.6 dB -> ~1e-5 (classic waterfall point ~9.6 dB for 1e-5).
	ber := UncodedBER(modem.BPSK, dsp.FromDB(9.6))
	if ber < 1e-6 || ber > 1e-4 {
		t.Fatalf("BPSK@9.6dB BER = %g", ber)
	}
	// At 0 SNR everything is a coin flip.
	if UncodedBER(modem.QAM64, 0) != 0.5 {
		t.Fatal("zero SNR must give 0.5")
	}
}

func TestUncodedBEROrdering(t *testing.T) {
	// At any fixed SNR, denser constellations have higher BER.
	for _, snrDB := range []float64{5, 10, 15, 20} {
		s := dsp.FromDB(snrDB)
		b := UncodedBER(modem.BPSK, s)
		q := UncodedBER(modem.QPSK, s)
		q16 := UncodedBER(modem.QAM16, s)
		q64 := UncodedBER(modem.QAM64, s)
		if !(b <= q && q <= q16 && q16 <= q64) {
			t.Fatalf("snr %v: ordering violated %g %g %g %g", snrDB, b, q, q16, q64)
		}
	}
}

func TestCodedBERImprovesOnUncoded(t *testing.T) {
	// Within each code's operating region the coded BER must be far below
	// the raw crossover probability. (The union bound legitimately diverges
	// at high p — rate 3/4 is simply broken at raw BER 1e-2 — so each rate
	// is tested where it is meant to operate.)
	cases := map[modem.CodeRate]float64{
		modem.Rate12: 1e-2,
		modem.Rate23: 3e-3,
		modem.Rate34: 1e-3,
	}
	for _, code := range slices.Sorted(maps.Keys(cases)) {
		p := cases[code]
		c := CodedBitErrorBound(p, code)
		if c >= p/5 {
			t.Fatalf("code %v at p=%g: coded %g, want clear improvement", code, p, c)
		}
	}
	// And stronger codes do better at the same crossover probability.
	c12 := CodedBitErrorBound(5e-3, modem.Rate12)
	c34 := CodedBitErrorBound(5e-3, modem.Rate34)
	if c12 >= c34 {
		t.Fatalf("rate 1/2 (%g) should beat rate 3/4 (%g)", c12, c34)
	}
}

// The union bound as written before its binomials and powers were tabled:
// one pairwiseError call per distance term, each recomputing its own
// binomials and powers, over the spectra map. CodedBitErrorBound and PER
// must reproduce it bit for bit.
var refSpectra = map[modem.CodeRate]struct {
	dFree int
	cd    []float64
}{
	modem.Rate12: {10, []float64{36, 0, 211, 0, 1404, 0, 11633, 0, 77433, 0, 502690}},
	modem.Rate23: {6, []float64{3, 70, 285, 1276, 6160, 27128, 117019}},
	modem.Rate34: {5, []float64{42, 201, 1492, 10469, 62935, 379644}},
}

func refPairwiseError(d int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	var sum float64
	if d%2 == 1 {
		for k := (d + 1) / 2; k <= d; k++ {
			sum += binom(d, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(d-k))
		}
		return sum
	}
	for k := d/2 + 1; k <= d; k++ {
		sum += binom(d, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(d-k))
	}
	sum += 0.5 * binom(d, d/2) * math.Pow(p, float64(d/2)) * math.Pow(1-p, float64(d/2))
	return sum
}

func refCodedBitErrorBound(p float64, code modem.CodeRate) float64 {
	s, ok := refSpectra[code]
	if !ok {
		panic("permodel: unknown code rate")
	}
	var pb float64
	for i, c := range s.cd {
		if c == 0 {
			continue
		}
		pb += c * refPairwiseError(s.dFree+i, p)
	}
	if pb > 0.5 {
		pb = 0.5
	}
	return pb
}

func refPER(rate modem.Rate, payloadBytes int, perBinSNR []float64) float64 {
	if len(perBinSNR) == 0 {
		return 1
	}
	var p float64
	for _, s := range perBinSNR {
		p += UncodedBER(rate.Mod, s)
	}
	p /= float64(len(perBinSNR))
	pb := refCodedBitErrorBound(p, rate.Code)
	bits := float64((payloadBytes + 4) * 8)
	per := 1 - math.Pow(1-pb, bits)
	if per < 0 {
		per = 0
	}
	if per > 1 {
		per = 1
	}
	return per
}

func TestCodedBitErrorBoundMatchesReference(t *testing.T) {
	const draws = 100000
	lo, hi := math.Log(1e-30), math.Log(0.5)
	special := []float64{0, -1, 0.5, 0.7, 1, 5e-324, math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for _, code := range []modem.CodeRate{modem.Rate12, modem.Rate23, modem.Rate34} {
		check := func(p float64) {
			got, want := CodedBitErrorBound(p, code), refCodedBitErrorBound(p, code)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("code %v, p=%v (%#x): got %v (%#x), reference %v (%#x)",
					code, p, math.Float64bits(p), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, p := range special {
			check(p)
		}
		for i := 0; i < draws; i++ {
			check(math.Exp(lo + rng.Float64()*(hi-lo)))
		}
	}
	if !math.IsNaN(CodedBitErrorBound(math.NaN(), modem.Rate12)) {
		t.Fatal("NaN crossover probability must give NaN")
	}
}

func TestPERMatchesReference(t *testing.T) {
	// Bin vectors of 1..48 bins with per-bin SNRs log-uniform over
	// -10..35 dB span crossover probabilities from coin flips to exact
	// zeros (Erfc underflow), at every standard rate.
	const draws = 100000
	rates := modem.StandardRates()
	rng := rand.New(rand.NewSource(2))
	bins := make([]float64, 48)
	for i := 0; i < draws; i++ {
		rate := rates[i%len(rates)]
		payload := []int{40, 1460}[rng.Intn(2)]
		v := bins[:1+rng.Intn(len(bins))]
		for j := range v {
			v[j] = dsp.FromDB(-10 + 45*rng.Float64())
		}
		got, want := PER(rate, payload, v), refPER(rate, payload, v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v, %d bytes, bins %v: got %v, reference %v", rate, payload, v, got, want)
		}
	}
	for _, rate := range rates {
		if got, want := PER(rate, 1460, nil), refPER(rate, 1460, nil); got != want {
			t.Fatalf("%v, no bins: got %v, reference %v", rate, got, want)
		}
	}
}

// BenchmarkPER prices one 48-bin delivery draw at each standard rate: the
// permodel lookup behind every netsim packet.
func BenchmarkPER(b *testing.B) {
	cfg := modem.Profile80211()
	bins := make([]float64, cfg.NumData())
	for i := range bins {
		bins[i] = dsp.FromDB(14 + 6*math.Sin(float64(i)/5))
	}
	for _, rate := range modem.StandardRates() {
		b.Run(fmt.Sprintf("mbps=%.0f", rate.BitRate(cfg)/1e6), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for b.Loop() {
				sink += PER(rate, 1460, bins)
			}
			perSink = sink
		})
	}
}

var perSink float64

func TestPERMonotoneInSNRProperty(t *testing.T) {
	cfg := modem.Profile80211()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rate := modem.StandardRates()[r.Intn(8)]
		s1 := r.Float64() * 30
		s2 := s1 + r.Float64()*10
		return FlatPER(cfg, rate, 500, s2) <= FlatPER(cfg, rate, 500, s1)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPERLimits(t *testing.T) {
	cfg := modem.Profile80211()
	r6, _ := modem.RateByMbps(6)
	if per := FlatPER(cfg, r6, 1460, 30); per > 1e-6 {
		t.Fatalf("6 Mbps at 30 dB PER = %g", per)
	}
	if per := FlatPER(cfg, r6, 1460, -5); per < 0.99 {
		t.Fatalf("6 Mbps at -5 dB PER = %g", per)
	}
	r54, _ := modem.RateByMbps(54)
	if per := FlatPER(cfg, r54, 1460, 10); per < 0.99 {
		t.Fatalf("54 Mbps at 10 dB PER = %g", per)
	}
}

func TestRateThresholdsOrdered(t *testing.T) {
	// The SNR needed for 10% PER must increase with the rate.
	cfg := modem.Profile80211()
	prev := -100.0
	for _, mbps := range []int{6, 9, 12, 18, 24, 36, 48, 54} {
		rate, _ := modem.RateByMbps(mbps)
		thr := SNRForPER(cfg, rate, 1460, 0.1)
		if thr < prev {
			t.Fatalf("%d Mbps threshold %.2f below previous %.2f", mbps, thr, prev)
		}
		prev = thr
	}
}

// jointSNR combines per-subcarrier SNRs of concurrent synchronized
// senders the way the delivery draws do: starting from zero, each sender
// added in turn by AccumulateSNR. The tests use it as the reference
// composition of a joint draw.
func jointSNR(perSender [][]float64) []float64 {
	if len(perSender) == 0 {
		return nil
	}
	out := make([]float64, len(perSender[0]))
	for _, s := range perSender {
		AccumulateSNR(out, s)
	}
	return out
}

// subcarrierSNRs is the per-data-bin linear SNRs of one link realization:
// the link's average SNR shaped by a multipath frequency response, the
// way testbed.Link.AppendSubcarrierSNRs draws them.
func subcarrierSNRs(cfg *modem.Config, freqResp []complex128, avgSNRdB float64) []float64 {
	lin := dsp.FromDB(avgSNRdB)
	bins := cfg.DataBins()
	out := make([]float64, len(bins))
	for i, k := range bins {
		h := freqResp[cfg.Bin(k)]
		out[i] = lin * (real(h)*real(h) + imag(h)*imag(h))
	}
	return out
}

func TestJointSNRSumsPower(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	got := jointSNR([][]float64{a, b})
	want := []float64{5, 7, 9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("joint[%d] = %g", i, got[i])
		}
	}
}

func TestJointPERBeatsSinglePER(t *testing.T) {
	// Two senders over independent fading: the joint PER must be lower
	// than either alone at the same per-sender SNR.
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(1))
	rate, _ := modem.RateByMbps(12)
	var single, joint float64
	const draws = 200
	for i := 0; i < draws; i++ {
		h1 := channel.NewIndoor(rng, cfg.SampleRateHz, 60, 0).FreqResponse(cfg.NFFT)
		h2 := channel.NewIndoor(rng, cfg.SampleRateHz, 60, 0).FreqResponse(cfg.NFFT)
		s1 := subcarrierSNRs(cfg, h1, 8)
		s2 := subcarrierSNRs(cfg, h2, 8)
		single += PER(rate, 1000, s1) / draws
		joint += PER(rate, 1000, jointSNR([][]float64{s1, s2})) / draws
	}
	if joint >= single {
		t.Fatalf("joint PER %g not better than single %g", joint, single)
	}
}

func TestSubcarrierSNRsShapedByChannel(t *testing.T) {
	cfg := modem.Profile80211()
	flat := channel.Flat().FreqResponse(cfg.NFFT)
	s := subcarrierSNRs(cfg, flat, 10)
	for _, v := range s {
		if math.Abs(v-10) > 1e-9 {
			t.Fatalf("flat channel SNR %g, want 10 linear", v)
		}
	}
}

func TestAnalyticMatchesEmpiricalWaterfall(t *testing.T) {
	// The analytic model and the real waveform PHY must agree on where the
	// waterfall is: for each tested rate, find the analytic 50%-PER SNR and
	// verify the empirical PER is high a few dB below it and low a few dB
	// above it.
	if testing.Short() {
		t.Skip("waveform calibration is slow")
	}
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(2))
	for _, mbps := range []int{6, 24} {
		rate, _ := modem.RateByMbps(mbps)
		mid := SNRForPER(cfg, rate, 200, 0.5)
		below := EmpiricalPER(cfg, rate, 200, mid-4, 25, rng)
		above := EmpiricalPER(cfg, rate, 200, mid+4, 25, rng)
		if below < 0.5 {
			t.Fatalf("%d Mbps: empirical PER %.2f at analytic-mid-4dB, want high", mbps, below)
		}
		if above > 0.2 {
			t.Fatalf("%d Mbps: empirical PER %.2f at analytic-mid+4dB, want low", mbps, above)
		}
	}
}
