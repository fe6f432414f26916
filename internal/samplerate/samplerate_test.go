package samplerate

import (
	"math/rand"
	"testing"

	"repro/internal/modem"
)

// frameTimes returns lossless frame durations for a 1460-byte packet.
func frameTimes() []float64 {
	cfg := modem.Profile80211()
	out := make([]float64, 0, 8)
	for _, r := range modem.StandardRates() {
		fp := modem.FrameParams{Cfg: cfg, Rate: r, CP: cfg.CPLen, PayloadLen: 1460, ScramblerSeed: 1}
		out = append(out, float64(fp.AirtimeSamples())/cfg.SampleRateHz)
	}
	return out
}

// perByRate simulates a link where rates up to maxGood succeed always and
// faster ones always fail.
func drive(t *testing.T, maxGood int, packets int) *SampleRate {
	t.Helper()
	ft := frameTimes()
	s := New(ft)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < packets; i++ {
		idx, _ := s.Pick(rng)
		ok := idx <= maxGood
		tx := ft[idx]
		if !ok {
			tx *= 7 // full retry cost
		}
		s.Update(idx, ok, tx)
	}
	return s
}

func TestConvergesToFastestWorkingRate(t *testing.T) {
	for _, maxGood := range []int{0, 3, 7} {
		s := drive(t, maxGood, 800)
		if s.Current() != maxGood {
			t.Fatalf("maxGood=%d: converged to %d", maxGood, s.Current())
		}
	}
}

func TestProbesHappen(t *testing.T) {
	// With only rates <= 3 working, SampleRate keeps sampling the faster
	// rates (they would be quicker if they worked). Once it sits at the top
	// rate it correctly stops probing, so count probes on a capped link.
	ft := frameTimes()
	s := New(ft)
	rng := rand.New(rand.NewSource(2))
	probes := 0
	for i := 0; i < 400; i++ {
		idx, probe := s.Pick(rng)
		if probe {
			probes++
		}
		ok := idx <= 3
		tx := ft[idx]
		if !ok {
			tx *= 7
		}
		s.Update(idx, ok, tx)
	}
	if probes < 5 {
		t.Fatalf("only %d probes in 400 packets", probes)
	}
	// At the top rate with a perfect link, probing stops.
	s2 := New(ft)
	for i := 0; i < 100; i++ {
		idx, _ := s2.Pick(rng)
		s2.Update(idx, true, ft[idx])
	}
	if s2.Current() != 7 {
		t.Fatalf("perfect link converged to %d", s2.Current())
	}
	for i := 0; i < 50; i++ {
		if _, probe := s2.Pick(rng); probe {
			t.Fatal("no probes expected at the top rate")
		}
		s2.Update(s2.Current(), true, ft[s2.Current()])
	}
}

func TestLossyRateDisabledAfterConsecutiveFailures(t *testing.T) {
	ft := frameTimes()
	s := New(ft)
	// Fail rate 7 four times in a row.
	for i := 0; i < 4; i++ {
		s.Update(7, false, ft[7]*7)
	}
	if s.stats[7].lossyDisable == 0 {
		t.Fatal("rate 7 should be disabled after 4 consecutive failures")
	}
	for _, c := range s.probeCandidates() {
		if c == 7 {
			t.Fatal("disabled rate must not be probed")
		}
	}
}

func TestLossyLockoutLastsFiftyPackets(t *testing.T) {
	// Regression: the lockout used to decrement only inside probeCandidates
	// (reached every probeInterval-th packet), making the documented
	// 50-packet lockout last ~500 packets.
	ft := frameTimes()
	s := New(ft)
	// Give the slow rate traffic so re-election has an anchor, then fail
	// rate 7 four times in a row to trigger its lockout.
	s.Update(0, true, ft[0])
	for i := 0; i < 4; i++ {
		s.Update(7, false, ft[7]*7)
	}
	if s.stats[7].lossyDisable == 0 {
		t.Fatal("rate 7 should be locked out")
	}
	// Each subsequent packet (on any rate) ages the lockout by one.
	packets := 0
	for s.stats[7].lossyDisable > 0 {
		s.Update(0, true, ft[0])
		packets++
		if packets > 60 {
			t.Fatalf("lockout still active after %d packets", packets)
		}
	}
	if packets != 50 {
		t.Fatalf("lockout lasted %d packets, want 50", packets)
	}
}

func TestProbeCandidatesIsPure(t *testing.T) {
	ft := frameTimes()
	s := New(ft)
	s.Update(0, true, ft[0])
	for i := 0; i < 4; i++ {
		s.Update(7, false, ft[7]*7)
	}
	before := s.stats[7].lossyDisable
	// A read path must not mutate lockout state, however often it runs.
	for i := 0; i < 100; i++ {
		s.probeCandidates()
	}
	if got := s.stats[7].lossyDisable; got != before {
		t.Fatalf("probeCandidates mutated lossyDisable: %d -> %d", before, got)
	}
}

func TestLossyCurrentRateDemoted(t *testing.T) {
	ft := frameTimes()
	s := New(ft)
	// Establish rate 3 as a sampled alternative, then move current to 7.
	for i := 0; i < 10; i++ {
		s.Update(3, true, ft[3])
	}
	for i := 0; i < 10; i++ {
		s.Update(7, true, ft[7])
	}
	if s.Current() != 7 {
		t.Fatalf("setup: current %d, want 7", s.Current())
	}
	// Four consecutive failures lock rate 7 out; it must not stay current.
	for i := 0; i < 4; i++ {
		s.Update(7, false, ft[7]*7)
	}
	if s.stats[7].lossyDisable == 0 {
		t.Fatal("rate 7 should be locked out")
	}
	if s.Current() == 7 {
		t.Fatal("lossy-disabled rate must be demoted from current")
	}
}

func TestAdaptsDownWhenChannelDegrades(t *testing.T) {
	ft := frameTimes()
	s := New(ft)
	rng := rand.New(rand.NewSource(3))
	// Phase 1: everything works; should reach the top rate.
	for i := 0; i < 500; i++ {
		idx, _ := s.Pick(rng)
		s.Update(idx, true, ft[idx])
	}
	if s.Current() != 7 {
		t.Fatalf("phase 1 converged to %d", s.Current())
	}
	// Phase 2: only rates <= 2 work.
	for i := 0; i < 500; i++ {
		idx, _ := s.Pick(rng)
		ok := idx <= 2
		tx := ft[idx]
		if !ok {
			tx *= 7
		}
		s.Update(idx, ok, tx)
	}
	if s.Current() > 2 {
		t.Fatalf("phase 2 stuck at rate %d", s.Current())
	}
}
