package modem

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// refDetect is DetectPacket as a full pass: every energy ratio and every
// periodicity value of the stream first, then the crossing search over
// those slices, rereading the periodicity window for each crossing, and
// fine timing by summing the correlation at every lag. dsp's tests hold
// EnergyRatio and AutoCorr to its whole-stream references bit for bit, so
// draining them here gives those references' sums. It also returns the
// crossing index and its confirmation (-1 when there is none).
func refDetect(cfg *Config, x []complex128, from int) (DetectResult, int, int) {
	period := cfg.STSPeriod()
	w := 2 * period
	if from < 0 {
		from = 0
	}
	if len(x)-from < cfg.PreambleLen()+2*w {
		return DetectResult{}, -1, -1
	}
	seg := x[from:]
	er, ac := dsp.NewEnergyRatio(seg, w), dsp.NewAutoCorr(seg, period, w)
	ratios, auto := make([]float64, er.Len()), make([]float64, ac.Len())
	for d := range ratios {
		ratios[d] = er.At(d)
	}
	for d := range auto {
		auto[d] = ac.At(d)
	}

	coarse, confirm, crossing := -1, -1, -1
	for d := 0; d < len(ratios); d++ {
		if ratios[d] < detEnergyRatio {
			continue
		}
		for j := d; j <= d+3*w && j < len(auto); j++ {
			if auto[j] >= detMinAutoCorr {
				confirm = j
				break
			}
		}
		if confirm >= 0 {
			coarse, crossing = d+2*w, d
			break
		}
	}
	if coarse < 0 {
		return DetectResult{}, -1, -1
	}

	cfoLo := confirm
	cfoHi := confirm + 2*w
	if cfoHi+period > len(seg) {
		cfoHi = len(seg) - period
	}
	var acc complex128
	for i := cfoLo; i < cfoHi; i++ {
		acc += seg[i+period] * cmplx.Conj(seg[i])
	}
	coarseCFO := cmplx.Phase(acc) / (2 * math.Pi * float64(period))

	ref := cfg.LongTraining()
	searchLo := coarse - 6*period
	if searchLo < 0 {
		searchLo = 0
	}
	searchHi := coarse + 26*period
	if searchHi+len(ref) > len(seg) {
		searchHi = len(seg) - len(ref)
	}
	if searchHi <= searchLo {
		return DetectResult{Detected: true, CoarseIdx: from + coarse, FineIdx: from + coarse - w, CoarseCFO: coarseCFO}, crossing, confirm
	}
	fineSeg := append([]complex128(nil), seg[searchLo:searchHi+len(ref)]...)
	dsp.Rotate(fineSeg, -coarseCFO, searchLo)
	eRef := dsp.Energy(ref)
	pk, pkV := 0, math.Inf(-1)
	for k := 0; k+len(ref) <= len(fineSeg); k++ {
		var acc complex128
		var eWin float64
		for i, r := range ref {
			v := fineSeg[k+i]
			acc += v * cmplx.Conj(r)
			eWin += real(v)*real(v) + imag(v)*imag(v)
		}
		var c float64
		if eWin != 0 {
			den := eRef * eWin
			c = cmplx.Abs(acc) / math.Sqrt(den)
		}
		if c > pkV {
			pk, pkV = k, c
		}
	}
	fine := searchLo + pk - 10*period
	return DetectResult{Detected: true, CoarseIdx: from + coarse, FineIdx: from + fine, CoarseCFO: coarseCFO}, crossing, confirm
}

func sameDetect(a, b DetectResult) bool {
	return a.Detected == b.Detected && a.CoarseIdx == b.CoarseIdx && a.FineIdx == b.FineIdx &&
		math.Float64bits(a.CoarseCFO) == math.Float64bits(b.CoarseCFO)
}

// noiseVec returns n samples of complex white noise of power p.
func noiseVec(r *rand.Rand, n int, p float64) []complex128 {
	sigma := math.Sqrt(p / 2)
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	return v
}

// TestDetectPacketMatchesFullPass holds the streamed detector to refDetect
// on noisy frames under both profiles: no crossing, streams too short by
// one sample and just long enough, searches from > 0, and a non-periodic
// energy burst ahead of the preamble at every gap that puts the
// confirmation on either side of the 3w edge of the periodicity window.
func TestDetectPacketMatchesFullPass(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	edge, misses, checked := 0, 0, 0
	check := func(name string, cfg *Config, x []complex128, from int) {
		t.Helper()
		want, d, confirm := refDetect(cfg, x, from)
		if got := DetectPacket(cfg, x, from); !sameDetect(got, want) {
			t.Fatalf("%s: DetectPacket = %+v, full pass %+v", name, got, want)
		}
		checked++
		if confirm >= 0 && confirm-d == 3*2*cfg.STSPeriod() {
			edge++
		}
	}
	for _, cfg := range []*Config{Profile80211(), ProfileWiGLAN()} {
		p := testParams(cfg, 6, 30)
		payload := make([]byte, p.PayloadLen)
		r.Read(payload)
		wave := BuildFrame(p, payload)
		w := 2 * cfg.STSPeriod()
		minLen := cfg.PreambleLen() + 2*w

		check("silence", cfg, make([]complex128, 3*minLen), 0)
		check("noise only", cfg, noiseVec(r, 3*minLen, 1), 0)
		check("one sample short", cfg, noiseVec(r, minLen-1, 1), 0)
		check("just long enough", cfg, padded(r, wave[:minLen-2*w], 2*w, 0, -20), 0)
		for _, snr := range []float64{3, 10, 25} {
			x := padded(r, addAWGN(r, wave, snr), 300+r.Intn(300), 200, -snr)
			check("frame", cfg, x, 0)
			check("from > 0", cfg, x, 1+r.Intn(250))
			check("from past the frame", cfg, x, len(x)-minLen)
			check("truncated", cfg, x[:300+cfg.PreambleLen()], 0)
		}
		// A white burst fires the energy detector without STS periodicity;
		// the preamble g samples after it confirms the crossing at or near
		// the window edge, or misses it.
		for g := 2 * w; g <= 5*w; g++ {
			x := noiseVec(r, 400, 1e-4)
			x = append(x, noiseVec(r, w/2, 1)...)
			x = append(x, noiseVec(r, g-w/2, 1e-4)...)
			x = append(x, wave...)
			x = append(x, noiseVec(r, 100, 1e-4)...)
			check("burst then preamble", cfg, x, 0)
			if _, _, c := refDetect(cfg, x, 0); c < 0 {
				misses++
			}
		}
	}
	if edge == 0 {
		t.Fatalf("no case confirmed exactly at the 3w window edge (%d checked, %d missed)", checked, misses)
	}
}

// BenchmarkDetectPacket times WiGLAN packet acquisition over noisy
// fig13-sized streams: a 20-byte frame at 10 dB SNR behind 700 samples of
// noise, under a random 9-tap channel.
func BenchmarkDetectPacket(b *testing.B) {
	r := rand.New(rand.NewSource(32))
	cfg := ProfileWiGLAN()
	p := testParams(cfg, 6, 20)
	const streams = 8
	xs := make([][]complex128, streams)
	for i := range xs {
		payload := make([]byte, p.PayloadLen)
		r.Read(payload)
		wave := BuildFrame(p, payload)
		taps := noiseVec(r, 9, 1.0/9)
		faded := make([]complex128, len(wave)+len(taps)-1)
		for k, t := range taps {
			for j, v := range wave {
				faded[k+j] += t * v
			}
		}
		xs[i] = padded(r, addAWGN(r, faded, 10), 700, 400, -10)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if !DetectPacket(cfg, xs[i%streams], 0).Detected {
			b.Fatal("packet not detected")
		}
		i++
	}
}
