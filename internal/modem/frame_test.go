package modem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

func addAWGN(r *rand.Rand, x []complex128, snrDB float64) []complex128 {
	sp := dsp.MeanPower(x)
	sigma := math.Sqrt(sp / dsp.FromDB(snrDB) / 2)
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v + complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	return out
}

func padded(r *rand.Rand, wave []complex128, before, after int, noiseDB float64) []complex128 {
	sp := dsp.MeanPower(wave)
	sigma := math.Sqrt(sp * dsp.FromDB(noiseDB) / 2)
	mk := func(n int) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
		return v
	}
	out := mk(before)
	out = append(out, wave...)
	return append(out, mk(after)...)
}

func testParams(cfg *Config, mbps int, payloadLen int) FrameParams {
	rate, err := RateByMbps(mbps)
	if err != nil {
		panic(err)
	}
	return FrameParams{Cfg: cfg, Rate: rate, CP: cfg.CPLen, PayloadLen: payloadLen, ScramblerSeed: 0x5d}
}

func TestFrameRoundTripIdeal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := Profile80211()
	for _, mbps := range []int{6, 9, 12, 18, 24, 36, 48, 54} {
		p := testParams(cfg, mbps, 100)
		payload := make([]byte, p.PayloadLen)
		r.Read(payload)
		wave := BuildFrame(p, payload)
		x := padded(r, wave, 400, 400, -40)
		rx := &Receiver{Cfg: cfg, FFTBackoff: 3}
		got, ok, _, err := rx.Receive(p, x, 0)
		if err != nil {
			t.Fatalf("%d Mbps: %v", mbps, err)
		}
		if !ok {
			t.Fatalf("%d Mbps: CRC failed on clean channel", mbps)
		}
		if string(got) != string(payload) {
			t.Fatalf("%d Mbps: payload mismatch", mbps)
		}
	}
}

func TestFrameRoundTripAWGN(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := Profile80211()
	// Each rate decodes reliably at a sufficiently high SNR.
	cases := []struct {
		mbps  int
		snrDB float64
	}{
		{6, 10}, {12, 13}, {24, 20}, {54, 30},
	}
	for _, tc := range cases {
		p := testParams(cfg, tc.mbps, 200)
		payload := make([]byte, p.PayloadLen)
		r.Read(payload)
		wave := BuildFrame(p, payload)
		okCount := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			noisy := addAWGN(r, wave, tc.snrDB)
			x := padded(r, noisy, 300, 300, -tc.snrDB)
			rx := &Receiver{Cfg: cfg, FFTBackoff: 3}
			_, ok, _, err := rx.Receive(p, x, 0)
			if err == nil && ok {
				okCount++
			}
		}
		if okCount < trials-1 {
			t.Fatalf("%d Mbps at %.0f dB: only %d/%d frames decoded", tc.mbps, tc.snrDB, okCount, trials)
		}
	}
}

func TestFrameFailsAtVeryLowSNR(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := Profile80211()
	p := testParams(cfg, 54, 200)
	payload := make([]byte, p.PayloadLen)
	r.Read(payload)
	wave := BuildFrame(p, payload)
	fails := 0
	for trial := 0; trial < 5; trial++ {
		noisy := addAWGN(r, wave, 5) // far below 64-QAM threshold
		x := padded(r, noisy, 300, 300, -5)
		rx := &Receiver{Cfg: cfg, FFTBackoff: 3}
		_, ok, _, err := rx.Receive(p, x, 0)
		if err != nil || !ok {
			fails++
		}
	}
	if fails < 4 {
		t.Fatalf("64-QAM at 5 dB should almost always fail; failed %d/5", fails)
	}
}

func TestFrameRoundTripWiGLANProfile(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	cfg := ProfileWiGLAN()
	p := FrameParams{Cfg: cfg, Rate: Rate{QPSK, Rate12}, CP: cfg.CPLen, PayloadLen: 50, ScramblerSeed: 0x11}
	payload := make([]byte, p.PayloadLen)
	r.Read(payload)
	wave := BuildFrame(p, payload)
	x := padded(r, wave, 500, 500, -35)
	rx := &Receiver{Cfg: cfg, FFTBackoff: 3}
	got, ok, _, err := rx.Receive(p, x, 0)
	if err != nil || !ok {
		t.Fatalf("WiGLAN profile decode failed: ok=%v err=%v", ok, err)
	}
	if string(got) != string(payload) {
		t.Fatal("payload mismatch")
	}
}

func TestFrameWithCFO(t *testing.T) {
	// 40 ppm at 5.8 GHz carrier / 20 Msps = 232 kHz -> 0.0116 cycles/sample.
	r := rand.New(rand.NewSource(5))
	cfg := Profile80211()
	p := testParams(cfg, 12, 150)
	payload := make([]byte, p.PayloadLen)
	r.Read(payload)
	wave := BuildFrame(p, payload)
	cfo := 232e3 / cfg.SampleRateHz
	rot := append([]complex128(nil), wave...)
	dsp.Rotate(rot, cfo, 0)
	noisy := addAWGN(r, rot, 25)
	x := padded(r, noisy, 300, 300, -25)
	rx := &Receiver{Cfg: cfg, FFTBackoff: 3}
	_, ok, diag, err := rx.Receive(p, x, 0)
	if err != nil || !ok {
		t.Fatalf("decode with CFO failed: ok=%v err=%v", ok, err)
	}
	if math.Abs(diag.CFO-cfo)/cfo > 0.05 {
		t.Fatalf("CFO estimate %g, want %g", diag.CFO, cfo)
	}
}

func TestDetectorAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	cfg := Profile80211()
	p := testParams(cfg, 6, 50)
	payload := make([]byte, p.PayloadLen)
	r.Read(payload)
	wave := BuildFrame(p, payload)
	for _, snr := range []float64{8, 15, 25} {
		noisy := addAWGN(r, wave, snr)
		before := 321
		x := padded(r, noisy, before, 300, -snr)
		det := DetectPacket(cfg, x, 0)
		if !det.Detected {
			t.Fatalf("snr %.0f: packet not detected", snr)
		}
		if det.FineIdx < before-3 || det.FineIdx > before+3 {
			t.Fatalf("snr %.0f: fine index %d, want ~%d", snr, det.FineIdx, before)
		}
		if det.CoarseIdx < before {
			t.Fatalf("snr %.0f: coarse index %d before true start %d", snr, det.CoarseIdx, before)
		}
	}
}

func TestDetectorNoFalsePositiveOnNoise(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := Profile80211()
	noise := make([]complex128, 4000)
	for i := range noise {
		noise[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	det := DetectPacket(cfg, noise, 0)
	if det.Detected {
		t.Fatalf("false positive at %d", det.FineIdx)
	}
}

func TestDetectionDelayGrowsAtLowSNR(t *testing.T) {
	// The premise of SourceSync §4.2(a): the coarse detection instant varies
	// with SNR. Verify the spread of (coarse - true start) is larger at low
	// SNR than at high SNR.
	r := rand.New(rand.NewSource(8))
	cfg := Profile80211()
	p := testParams(cfg, 6, 40)
	payload := make([]byte, p.PayloadLen)
	r.Read(payload)
	wave := BuildFrame(p, payload)
	spread := func(snr float64) float64 {
		var delays []float64
		for trial := 0; trial < 40; trial++ {
			noisy := addAWGN(r, wave, snr)
			x := padded(r, noisy, 200, 200, -snr)
			det := DetectPacket(cfg, x, 0)
			if det.Detected {
				delays = append(delays, float64(det.CoarseIdx-200))
			}
		}
		if len(delays) < 30 {
			t.Fatalf("snr %.0f: too many missed detections (%d/40)", snr, len(delays))
		}
		return dsp.StdDev(delays)
	}
	low := spread(3)
	high := spread(25)
	if low < high {
		t.Fatalf("detection delay spread low SNR %.2f < high SNR %.2f", low, high)
	}
}

func TestFrameParamsAccounting(t *testing.T) {
	cfg := Profile80211()
	p := testParams(cfg, 6, 1460)
	// 1460+4 bytes + 6 tail bits at 24 bits/symbol = (1464*8+6)/24 symbols.
	want := (1464*8 + 6 + 23) / 24
	if got := p.NumDataSymbols(); got != want {
		t.Fatalf("NumDataSymbols = %d, want %d", got, want)
	}
	air := p.AirtimeSamples()
	if air != cfg.PreambleLen()+want*(cfg.CPLen+cfg.NFFT) {
		t.Fatalf("AirtimeSamples = %d", air)
	}
}
