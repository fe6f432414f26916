package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// The tests in this file pin the pluggable interference layer's contract:
// per-rate decode thresholds rise monotonically with rate, and the
// rate-aware model degrades surviving draws where the legacy gate never
// does.

func TestDecodeThresholdMonotoneAcrossRates(t *testing.T) {
	// StandardRates is ordered slowest to fastest; a faster rate needs at
	// least as much SNR to decode, so the derived thresholds must be
	// non-decreasing — and the spread must be substantial (BPSK 1/2 to
	// 64-QAM 3/4 spans well over 10 dB on any reasonable PER curve).
	cfg := modem.Profile80211()
	rates := modem.StandardRates()
	m := NewRateAware(cfg, rates, 1460)
	if len(m.ThresholdsDB) != len(rates) {
		t.Fatalf("%d thresholds for %d rates", len(m.ThresholdsDB), len(rates))
	}
	for i := 1; i < len(m.ThresholdsDB); i++ {
		if m.ThresholdsDB[i] < m.ThresholdsDB[i-1] {
			t.Fatalf("threshold[%d]=%.2f dB below threshold[%d]=%.2f dB — faster rate decoding at less SNR",
				i, m.ThresholdsDB[i], i-1, m.ThresholdsDB[i-1])
		}
	}
	if spread := m.ThresholdsDB[len(rates)-1] - m.ThresholdsDB[0]; spread < 10 {
		t.Fatalf("threshold spread %.2f dB between slowest and fastest rate, want > 10", spread)
	}
}

func TestLegacyThresholdNeverDegrades(t *testing.T) {
	// The legacy gate is binary in the SINR and blind to the rate: above
	// the threshold the draw runs clean (scale 1), below it the frame dies
	// — at every rate index.
	m := LegacyThreshold{CaptureDB: 10}
	for _, rate := range []int{0, 3, 7} {
		up := m.Settle(Reception{SINRdB: 10.5, ServingSNRdB: 25, RateIdx: rate})
		if !up.Survives || up.SNRScale != 1 {
			t.Fatalf("rate %d at 10.5 dB: %+v, want clean survival", rate, up)
		}
		down := m.Settle(Reception{SINRdB: 9.5, ServingSNRdB: 25, RateIdx: rate})
		if down.Survives {
			t.Fatalf("rate %d at 9.5 dB survived a 10 dB gate", rate)
		}
		if down.MarginDB >= 0 || up.MarginDB <= 0 {
			t.Fatalf("margins must bracket the gate: up %.2f, down %.2f", up.MarginDB, down.MarginDB)
		}
	}
}

func TestRateAwareRobustSurvivesWhereFastDies(t *testing.T) {
	// One overlap, two rates: an effective SINR between the robust rate's
	// threshold and the fast rate's threshold keeps the robust frame alive
	// (degraded) and corrupts the fast one — the rate dependence the
	// binary gate cannot express.
	m := &RateAware{ThresholdsDB: []float64{4, 18}}
	rx := Reception{SINRdB: 11, ServingSNRdB: 25}

	rx.RateIdx = 0
	robust := m.Settle(rx)
	if !robust.Survives {
		t.Fatalf("robust rate corrupted at 11 dB over a 4 dB threshold: %+v", robust)
	}
	if robust.MarginDB != 7 {
		t.Fatalf("robust margin %.2f dB, want 7", robust.MarginDB)
	}

	rx.RateIdx = 1
	fast := m.Settle(rx)
	if fast.Survives {
		t.Fatalf("fast rate survived at 11 dB under an 18 dB threshold: %+v", fast)
	}
	if fast.MarginDB != -7 {
		t.Fatalf("fast margin %.2f dB, want -7", fast.MarginDB)
	}

	// Rate indices beyond the table clamp to the last (fastest) entry.
	rx.RateIdx = 9
	if clamped := m.Settle(rx); clamped.Survives {
		t.Fatalf("out-of-table rate must clamp to the fastest threshold: %+v", clamped)
	}
}

func TestRateAwareScalesDrawToEffectiveSNR(t *testing.T) {
	// A surviving frame's draw runs at the effective SNR: the scale is
	// exactly SINR/SNR in linear terms, and clamps at 1 when nothing
	// degraded the frame.
	m := &RateAware{ThresholdsDB: []float64{0}}
	v := m.Settle(Reception{SINRdB: 19, ServingSNRdB: 25, RateIdx: 0})
	if !v.Survives {
		t.Fatalf("19 dB frame died over a 0 dB threshold")
	}
	want := math.Pow(10, (19.0-25.0)/10)
	if math.Abs(v.SNRScale-want) > 1e-12 {
		t.Fatalf("SNRScale %.6f, want %.6f (6 dB degradation)", v.SNRScale, want)
	}
	clean := m.Settle(Reception{SINRdB: 25, ServingSNRdB: 25, RateIdx: 0})
	if clean.SNRScale != 1 {
		t.Fatalf("undegraded frame scaled by %.6f, want exactly 1", clean.SNRScale)
	}
}

// hiddenPair builds the classic hidden-terminal geometry on a fresh sim:
// two out-of-range senders, each delivering to a receiver next to the
// other sender, with lossless draws and `packets` frames per flow.
func hiddenPair(seed int64, packets int) (*Sim, *Flow, *Flow) {
	cfg := modem.Profile80211()
	s := New(mac.Default(cfg), rand.New(rand.NewSource(seed)))
	s.CSRangeM = 50
	s.Env = testbed.Default(cfg)
	a := s.AddFlow(placedFlow("a", packets, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 58, Y: 0}, 25))
	b := s.AddFlow(placedFlow("b", packets, 1e-3, testbed.Point{X: 60, Y: 0}, testbed.Point{X: 2, Y: 0}, 25))
	return s, a, b
}

func TestRateAwareDegradationVersusLegacyGate(t *testing.T) {
	// Same hidden-terminal overlap, three prices. A legacy gate the SINR
	// clears: everything survives, nothing degraded. A rate-aware model
	// whose threshold the SINR clears: everything survives but every
	// overlapped draw is degraded (scale < 1) — the continuous pricing the
	// binary gate cannot express. A rate-aware threshold above the SINR:
	// every overlapped frame corrupts.
	run := func(model InterferenceModel) (*Sim, *Flow, *Flow) {
		s, a, b := hiddenPair(62, 30)
		s.Model = model
		s.Run()
		return s, a, b
	}

	_, la, lb := run(LegacyThreshold{CaptureDB: -100})
	for _, f := range []*Flow{la, lb} {
		for r, rc := range f.RateCorruption {
			if rc.Corrupted != 0 || rc.Degraded != 0 {
				t.Fatalf("legacy gate corrupted/degraded at rate %d: %+v", r, rc)
			}
		}
		if f.HiddenLosses != 0 {
			t.Fatalf("legacy -100 dB gate lost %d frames", f.HiddenLosses)
		}
	}

	_, sa, sb := run(&RateAware{ThresholdsDB: []float64{-100}})
	interfered := 0
	for _, f := range []*Flow{sa, sb} {
		if f.HiddenLosses != 0 {
			t.Fatalf("rate-aware below-SINR threshold still lost %d frames", f.HiddenLosses)
		}
		for _, rc := range f.RateCorruption {
			interfered += rc.Interfered
			if rc.Degraded != rc.Interfered {
				t.Fatalf("every overlapped survivor must be degraded: %+v", rc)
			}
			if rc.MarginDB <= 0 {
				t.Fatalf("surviving frames must carry positive summed margin: %+v", rc)
			}
		}
	}
	if interfered == 0 {
		t.Fatal("saturated hidden pair never overlapped — geometry broken")
	}

	_, ca, cb := run(&RateAware{ThresholdsDB: []float64{100}})
	if ca.HiddenLosses == 0 || cb.HiddenLosses == 0 {
		t.Fatalf("above-SINR threshold corrupted nothing: a=%d b=%d", ca.HiddenLosses, cb.HiddenLosses)
	}
	for _, f := range []*Flow{ca, cb} {
		for _, rc := range f.RateCorruption {
			if rc.Degraded != 0 {
				t.Fatalf("corrupted frames cannot also be degraded: %+v", rc)
			}
			if rc.Corrupted != rc.Interfered {
				t.Fatalf("every overlap must corrupt under a 100 dB threshold: %+v", rc)
			}
		}
	}
}

func TestRateCorruptionMergeRaggedSlices(t *testing.T) {
	dst := MergeRateCorruption(nil, []RateCorruption{{Interfered: 2, Corrupted: 1, MarginDB: -3}})
	dst = MergeRateCorruption(dst, []RateCorruption{{}, {Interfered: 4, Degraded: 4, MarginDB: 8}})
	if len(dst) != 2 {
		t.Fatalf("merged length %d, want 2", len(dst))
	}
	if dst[0].Interfered != 2 || dst[0].Corrupted != 1 || dst[0].MarginDB != -3 {
		t.Fatalf("rate 0 merged wrong: %+v", dst[0])
	}
	if dst[1].Interfered != 4 || dst[1].Degraded != 4 || dst[1].MarginDB != 8 {
		t.Fatalf("rate 1 merged wrong: %+v", dst[1])
	}
}

// The decode-threshold memo must be invisible except in speed: memoized
// tables equal a direct bisection, repeat lookups hit the cache, and the
// returned slice is a private copy a caller cannot poison the memo through.
func TestThresholdMemoMatchesDirectComputation(t *testing.T) {
	cfg := modem.Profile80211()
	rates := modem.StandardRates()
	h0, m0 := ThresholdCacheStats()

	a := NewRateAware(cfg, rates, 1459) // payload unlikely to be cached by earlier tests
	for i, r := range rates {
		if want := DecodeThresholdDB(cfg, r, 1459); a.ThresholdsDB[i] != want {
			t.Fatalf("rate %v: memoized threshold %.4f, direct %.4f", r, a.ThresholdsDB[i], want)
		}
	}

	b := NewRateAware(cfg, rates, 1459)
	h1, m1 := ThresholdCacheStats()
	if m1 <= m0 {
		t.Fatalf("first lookup should have been a miss (misses %d -> %d)", m0, m1)
	}
	if h1 <= h0 {
		t.Fatalf("second lookup should have been a hit (hits %d -> %d)", h0, h1)
	}

	// Mutating one table must not leak into the other (or the memo).
	b.ThresholdsDB[0] = -999
	c := NewRateAware(cfg, rates, 1459)
	if c.ThresholdsDB[0] == -999 || a.ThresholdsDB[0] == -999 {
		t.Fatal("memo handed out a shared slice; mutation poisoned the cache")
	}

	// A different payload is a different key, not a stale hit.
	d := NewRateAware(cfg, rates, 40)
	if d.ThresholdsDB[len(rates)-1] == a.ThresholdsDB[len(rates)-1] {
		t.Fatal("payload 40 and 1459 produced identical top-rate thresholds; key ignores payload?")
	}
}
